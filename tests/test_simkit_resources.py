"""Unit tests for simkit resources (the master-contention primitive)."""

import pytest

from reference.simkit import Environment, Resource


def hold_resource(env, resource, duration, log=None, tag=None):
    with resource.request() as req:
        yield req
        if log is not None:
            log.append((tag, "granted", env.now))
        yield env.timeout(duration)
    if log is not None:
        log.append((tag, "released", env.now))


class TestResourceBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)

    def test_single_user_granted_immediately(self):
        env = Environment()
        res = Resource(env)
        log = []
        env.process(hold_resource(env, res, 5, log, "a"))
        env.run()
        assert log == [("a", "granted", 0.0), ("a", "released", 5.0)]

    def test_fifo_queueing(self):
        env = Environment()
        res = Resource(env)
        log = []
        for tag in "abc":
            env.process(hold_resource(env, res, 2, log, tag))
        env.run()
        grants = [(t, when) for t, what, when in log if what == "granted"]
        assert grants == [("a", 0.0), ("b", 2.0), ("c", 4.0)]

    def test_capacity_two_serves_two_at_once(self):
        env = Environment()
        res = Resource(env, capacity=2)
        log = []
        for tag in "abc":
            env.process(hold_resource(env, res, 3, log, tag))
        env.run()
        grants = dict(
            (t, when) for t, what, when in log if what == "granted"
        )
        assert grants["a"] == 0.0
        assert grants["b"] == 0.0
        assert grants["c"] == 3.0

    def test_count_and_queue_length(self):
        env = Environment()
        res = Resource(env)
        observed = {}

        def observer(env):
            yield env.timeout(1)
            observed["count"] = res.count
            observed["queued"] = res.queue_length

        for _ in range(3):
            env.process(hold_resource(env, res, 5))
        env.process(observer(env))
        env.run()
        assert observed == {"count": 1, "queued": 2}

    def test_releasing_foreign_request_raises(self):
        env = Environment()
        res = Resource(env)

        def bad(env):
            req = res.request()
            yield req
            res.release(req)
            res.release(req)  # double release: req no longer a user

        env.process(bad(env))
        with pytest.raises(RuntimeError, match="does not hold"):
            env.run()

    def test_context_manager_releases_on_exception(self):
        env = Environment()
        res = Resource(env)

        def failing(env):
            with res.request() as req:
                yield req
                raise ValueError("fail while holding")

        def successor(env, log):
            yield env.timeout(0)
            with res.request() as req:
                yield req
                log.append(env.now)

        log = []
        env.process(failing(env))
        env.process(successor(env, log))
        with pytest.raises(ValueError):
            env.run()
        # The slot was freed despite the exception.
        env2 = Environment()
        assert Resource(env2).count == 0

    def test_cancel_removes_waiting_request(self):
        env = Environment()
        res = Resource(env)
        log = []

        def impatient(env):
            req = res.request()
            timeout = env.timeout(1)
            result = yield env.any_of([req, timeout])
            if req not in result:
                req.cancel()
                log.append("gave up")

        env.process(hold_resource(env, res, 10))
        env.process(impatient(env))
        env.run()
        assert log == ["gave up"]
        assert res.queue_length == 0


class TestResourceStatistics:
    def test_busy_time_accumulates(self):
        env = Environment()
        res = Resource(env)
        env.process(hold_resource(env, res, 4))
        env.process(hold_resource(env, res, 6))
        env.run()
        assert res.busy_time == pytest.approx(10.0)

    def test_utilization_full_when_always_busy(self):
        env = Environment()
        res = Resource(env)
        env.process(hold_resource(env, res, 5))
        env.process(hold_resource(env, res, 5))
        env.run()
        assert res.utilization() == pytest.approx(1.0)

    def test_utilization_partial(self):
        env = Environment()
        res = Resource(env)

        def late(env):
            yield env.timeout(5)
            with res.request() as req:
                yield req
                yield env.timeout(5)

        env.process(late(env))
        env.run()
        assert res.utilization() == pytest.approx(0.5)

    def test_mean_wait(self):
        env = Environment()
        res = Resource(env)
        for _ in range(3):
            env.process(hold_resource(env, res, 2))
        env.run()
        # waits: 0, 2, 4 -> mean 2
        assert res.mean_wait() == pytest.approx(2.0)

    def test_max_queue_length(self):
        env = Environment()
        res = Resource(env)
        for _ in range(5):
            env.process(hold_resource(env, res, 1))
        env.run()
        assert res.max_queue_length == 4

    def test_utilization_zero_before_any_time(self):
        env = Environment()
        res = Resource(env)
        assert res.utilization() == 0.0


class TestHeavyContention:
    """Paper-scale contention: hundreds of waiters on one slot."""

    def test_many_waiters_fifo_order(self):
        env = Environment()
        res = Resource(env)
        n = 500
        log = []

        def worker(env, idx):
            with res.request() as req:
                yield req
                log.append(idx)
                yield env.timeout(1)

        for idx in range(n):
            env.process(worker(env, idx))
        env.run()
        assert log == list(range(n))
        assert res.granted_count == n
        assert res.max_queue_length == n - 1

    def test_queue_stats_under_burst(self):
        env = Environment()
        res = Resource(env)
        n = 200

        def worker(env):
            with res.request() as req:
                yield req
                yield env.timeout(2)

        for _ in range(n):
            env.process(worker(env))
        env.run()
        # waits: 0, 2, 4, ..., 2(n-1) -> mean = n-1
        assert res.mean_wait() == pytest.approx(float(n - 1))
        assert res.busy_time == pytest.approx(2.0 * n)
        assert res.utilization() == pytest.approx(1.0)

    def test_max_queue_matches_fast_kernel(self):
        """The reference engine's queue-length statistic agrees with the
        vectorized kernel's ``master_max_queue`` on a shared seed."""
        from repro.models.fastsim import simulate_async_fast
        from reference.simmodel import simulate_async_reference
        from repro.stats.timing import ranger_timing

        for tf_mean in (1e-6, 3e-5, 1e-1):
            timing = ranger_timing("DTLZ2", 64, tf_mean)
            ref = simulate_async_reference(48, 400, timing, seed=99)
            fast = simulate_async_fast(48, 400, timing, seed=99)
            assert ref.master_max_queue == fast.master_max_queue
            assert ref.master_mean_wait == pytest.approx(
                fast.master_mean_wait, rel=1e-9, abs=1e-15
            )

    def test_deque_cancel_still_works_under_load(self):
        env = Environment()
        res = Resource(env)
        outcome = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env, idx):
            req = res.request()
            timeout = env.timeout(1 + idx * 0.01)
            result = yield env.any_of([req, timeout])
            if req not in result:
                req.cancel()
                outcome.append(idx)

        env.process(holder(env))
        for idx in range(50):
            env.process(impatient(env, idx))
        env.run()
        assert outcome == list(range(50))
        assert res.queue_length == 0
