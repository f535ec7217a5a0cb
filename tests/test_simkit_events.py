"""Unit tests for the simkit event/process kernel."""

import pytest

from reference.simkit import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    StopProcess,
)


class TestEnvironmentBasics:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_clock_starts_at_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_step_on_empty_schedule_raises(self):
        with pytest.raises(EmptySchedule):
            Environment().step()

    def test_run_empty_returns_none(self):
        assert Environment().run() is None

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_peek_returns_next_event_time(self):
        env = Environment()
        env.timeout(3.5)
        env.timeout(1.25)
        assert env.peek() == 1.25

    def test_len_counts_queued_events(self):
        env = Environment()
        env.timeout(1)
        env.timeout(2)
        assert len(env) == 2


class TestTimeout:
    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(2.5)
        env.run()
        assert env.now == 2.5

    def test_timeouts_fire_in_time_order(self):
        env = Environment()
        fired = []

        def proc(env, delay):
            yield env.timeout(delay)
            fired.append(delay)

        for d in (3.0, 1.0, 2.0):
            env.process(proc(env, d))
        env.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_equal_timestamps_preserve_fifo(self):
        env = Environment()
        fired = []

        def proc(env, tag):
            yield env.timeout(1.0)
            fired.append(tag)

        for tag in "abc":
            env.process(proc(env, tag))
        env.run()
        assert fired == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_carries_value(self):
        env = Environment()

        def proc(env):
            value = yield env.timeout(1, value="payload")
            return value

        p = env.process(proc(env))
        assert env.run(until=p) == "payload"

    def test_zero_delay_fires_at_current_time(self):
        env = Environment()

        def proc(env):
            yield env.timeout(0)
            return env.now

        p = env.process(proc(env))
        assert env.run(until=p) == 0.0


class TestRunUntil:
    def test_run_until_number_stops_clock_there(self):
        env = Environment()
        env.timeout(10)
        env.run(until=4.0)
        assert env.now == 4.0
        assert len(env) == 1  # the timeout is still pending

    def test_run_until_number_processes_earlier_events(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(2)
            log.append(env.now)

        env.process(proc(env))
        env.run(until=5.0)
        assert log == [2.0]

    def test_run_until_past_time_rejected(self):
        env = Environment()
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_run_until_event_returns_its_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(3)
            return 99

        assert env.run(until=env.process(proc(env))) == 99

    def test_run_until_never_fired_event_raises(self):
        env = Environment()
        orphan = env.event()
        env.timeout(1)
        with pytest.raises(RuntimeError, match="never fired"):
            env.run(until=orphan)


class TestEventStates:
    def test_new_event_is_pending(self):
        event = Environment().event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self):
        event = Environment().event()
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_ok_before_trigger_raises(self):
        event = Environment().event()
        with pytest.raises(RuntimeError):
            _ = event.ok

    def test_succeed_sets_value(self):
        env = Environment()
        event = env.event()
        event.succeed(7)
        assert event.triggered and event.ok and event.value == 7

    def test_double_succeed_raises(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_propagates_from_run(self):
        env = Environment()
        env.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_late_callback_runs_immediately(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        env.run()
        seen = []
        event.add_callback(seen.append)
        assert seen == [event]


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"

    def test_process_is_alive_until_exit(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_process_joining(self):
        env = Environment()

        def child(env):
            yield env.timeout(5)
            return 42

        def parent(env):
            value = yield env.process(child(env))
            return value * 2

        p = env.process(parent(env))
        assert env.run(until=p) == 84
        assert env.now == 5.0

    def test_joining_already_finished_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(1)
            return "早"

        def parent(env, child_proc):
            yield env.timeout(10)
            value = yield child_proc  # already processed
            return value

        c = env.process(child(env))
        p = env.process(parent(env, c))
        assert env.run(until=p) == "早"

    def test_process_exception_propagates(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            raise RuntimeError("exploded")

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="exploded"):
            env.run()

    def test_parent_can_catch_child_failure(self):
        env = Environment()

        def child(env):
            yield env.timeout(1)
            raise ValueError("child died")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                return f"caught: {exc}"

        p = env.process(parent(env))
        assert env.run(until=p) == "caught: child died"

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def proc(env):
            yield 123

        env.process(proc(env))
        with pytest.raises(TypeError, match="non-event"):
            env.run()

    def test_stop_process_exits_with_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            raise StopProcess("early exit")
            yield env.timeout(100)  # pragma: no cover

        p = env.process(proc(env))
        assert env.run(until=p) == "early exit"
        assert env.now == 1.0

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)


class TestInterrupts:
    def test_interrupt_wakes_sleeper(self):
        env = Environment()

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as exc:
                return ("interrupted", env.now, exc.cause)

        def interrupter(env, victim):
            yield env.timeout(3)
            victim.interrupt("cause!")

        s = env.process(sleeper(env))
        env.process(interrupter(env, s))
        env.run()
        assert s.value == ("interrupted", 3.0, "cause!")

    def test_interrupted_process_can_wait_again(self):
        env = Environment()
        log = []

        def resilient(env):
            while True:
                try:
                    yield env.timeout(10)
                    log.append(("slept", env.now))
                    return
                except Interrupt:
                    log.append(("poked", env.now))

        def poker(env, victim):
            yield env.timeout(2)
            victim.interrupt()

        r = env.process(resilient(env))
        env.process(poker(env, r))
        env.run()
        assert log == [("poked", 2.0), ("slept", 12.0)]

    def test_stale_target_does_not_resume_dead_process(self):
        env = Environment()

        def quitter(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                return "gone"

        def poker(env, victim):
            yield env.timeout(1)
            victim.interrupt()

        q = env.process(quitter(env))
        env.process(poker(env, q))
        env.run()  # must not raise when the 100s timeout eventually fires
        assert q.value == "gone"

    def test_interrupting_dead_process_raises(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)

        p = env.process(proc(env))
        env.run()
        with pytest.raises(RuntimeError, match="terminated"):
            p.interrupt()

    def test_self_interrupt_rejected(self):
        env = Environment()
        captured = {}

        def proc(env):
            yield env.timeout(1)
            try:
                proc_handle.interrupt()
            except RuntimeError as exc:
                captured["error"] = str(exc)

        proc_handle = env.process(proc(env))
        env.run()
        assert "not allowed" in captured["error"]


class TestConditionEvents:
    def test_all_of_waits_for_every_event(self):
        env = Environment()

        def proc(env):
            t1 = env.timeout(1, value="a")
            t2 = env.timeout(5, value="b")
            results = yield AllOf(env, [t1, t2])
            return sorted(results.values())

        p = env.process(proc(env))
        assert env.run(until=p) == ["a", "b"]
        assert env.now == 5.0

    def test_any_of_fires_on_first(self):
        env = Environment()

        def proc(env):
            t1 = env.timeout(1, value="fast")
            t2 = env.timeout(5, value="slow")
            results = yield AnyOf(env, [t1, t2])
            return list(results.values())

        p = env.process(proc(env))
        assert env.run(until=p) == ["fast"]
        assert env.now == 1.0

    def test_all_of_empty_fires_immediately(self):
        env = Environment()
        cond = AllOf(env, [])
        assert cond.triggered
        assert cond.value == {}

    def test_env_helpers_match_constructors(self):
        env = Environment()

        def proc(env):
            yield env.all_of([env.timeout(1), env.timeout(2)])
            yield env.any_of([env.timeout(1), env.timeout(2)])
            return env.now

        p = env.process(proc(env))
        assert env.run(until=p) == 3.0

    def test_mixed_environments_rejected(self):
        env1, env2 = Environment(), Environment()
        t1 = env1.timeout(1)
        t2 = env2.timeout(1)
        with pytest.raises(ValueError):
            AllOf(env1, [t1, t2])

    def test_condition_failure_propagates(self):
        env = Environment()

        def failer(env):
            yield env.timeout(1)
            raise ValueError("inner failure")

        def waiter(env):
            try:
                yield AllOf(env, [env.process(failer(env)), env.timeout(10)])
            except ValueError as exc:
                return str(exc)

        p = env.process(waiter(env))
        assert env.run(until=p) == "inner failure"


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            env = Environment()
            log = []

            def proc(env, tag, delays):
                for d in delays:
                    yield env.timeout(d)
                    log.append((tag, env.now))

            env.process(proc(env, "x", [1, 2, 1]))
            env.process(proc(env, "y", [2, 1, 2]))
            env.run()
            return log

        assert build_and_run() == build_and_run()
