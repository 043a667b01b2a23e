"""RL012 fixture: untimed blocking awaits and unbounded queues."""
# repro-analyze: module=repro.serve.fixture_async

import asyncio


async def untimed_queue_get(queue):
    return await queue.get()  # expect: RL012


async def untimed_queue_put(queue, item):
    await queue.put(item)  # expect: RL012


async def untimed_lock(lock):
    await lock.acquire()  # expect: RL012


async def untimed_stream_read(reader):
    return await reader.readexactly(4)  # expect: RL012


async def untimed_wait(event):
    await event.wait()  # expect: RL012


def unbounded_queue():
    return asyncio.Queue()  # expect: RL012


def explicitly_unbounded_queue():
    return asyncio.Queue(maxsize=0)  # expect: RL012


async def bounded_get_is_fine(queue):
    # asyncio primitives take no timeout kwarg; wait_for is the bound.
    return await asyncio.wait_for(queue.get(), timeout=0.5)


async def timeout_keyword_is_fine(client):
    # A primitive that accepts its own timeout keyword is bounded.
    return await client.recv(timeout=1.0)


async def non_blocking_awaits_are_fine(tasks):
    await asyncio.sleep(0.01)
    done, pending = await asyncio.wait(tasks, timeout=0.5)
    return done, pending


def bounded_queue_is_fine(depth):
    # A positive literal or a runtime-checked depth both pass.
    fixed = asyncio.Queue(maxsize=64)
    configured = asyncio.Queue(maxsize=depth)
    return fixed, configured


def sync_calls_are_fine(queue):
    # Only awaits block the loop; put_nowait and friends are ordinary.
    queue.put_nowait("item")
    return queue.get_nowait()
