"""Tests for the simkit Store (producer/consumer queue)."""

import pytest

from reference.simkit import Environment, Store


class TestStoreBasics:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        received = []

        def producer(env):
            yield store.put("a")
            yield store.put("b")

        def consumer(env):
            for _ in range(2):
                item = yield store.get()
                received.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert received == ["a", "b"]

    def test_get_blocks_until_item_arrives(self):
        env = Environment()
        store = Store(env)
        times = []

        def consumer(env):
            item = yield store.get()
            times.append((item, env.now))

        def producer(env):
            yield env.timeout(5)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [("late", 5.0)]

    def test_capacity_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put(1)
            log.append(("put1", env.now))
            yield store.put(2)          # blocks until the consumer drains
            log.append(("put2", env.now))

        def consumer(env):
            yield env.timeout(10)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert log == [("put1", 0.0), ("put2", 10.0)]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        out = []

        def producer(env):
            for i in range(5):
                yield store.put(i)

        def consumer(env):
            for _ in range(5):
                out.append((yield store.get()))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert out == [0, 1, 2, 3, 4]

    def test_multiple_consumers_fifo(self):
        env = Environment()
        store = Store(env)
        got = {}

        def consumer(env, name):
            got[name] = yield store.get()

        def producer(env):
            yield env.timeout(1)
            yield store.put("first")
            yield store.put("second")

        env.process(consumer(env, "c1"))
        env.process(consumer(env, "c2"))
        env.process(producer(env))
        env.run()
        assert got == {"c1": "first", "c2": "second"}

    def test_level_and_max_level(self):
        env = Environment()
        store = Store(env)

        def producer(env):
            yield store.put(1)
            yield store.put(2)
            yield store.put(3)
            yield store.get()

        env.process(producer(env))
        env.run()
        assert store.level == 2
        assert store.max_level == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Store(Environment(), capacity=0)

    def test_unbounded_never_blocks(self):
        env = Environment()
        store = Store(env)

        def producer(env):
            for i in range(100):
                yield store.put(i)
            return env.now

        p = env.process(producer(env))
        assert env.run(until=p) == 0.0
        assert store.level == 100
