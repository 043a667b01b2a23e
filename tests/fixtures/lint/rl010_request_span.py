"""RL010 fixture: request spans opened without a guaranteed close.

The marker below places this file inside the serve tier so the rule is
in scope (RL010 only patrols ``repro.serve`` / ``repro.obs``); every
rule still runs, so the raw ``open_span`` case is tagged for RL007 too.
"""
# repro-analyze: module=repro.serve.fixture


def leaky(tracer, work):
    ctx = tracer.begin_request("direct")  # expect: RL010
    work()
    return ctx


def close_only_in_except(tracer, work):
    ctx = tracer.begin_request("batched")  # expect: RL010
    try:
        work()
    except ValueError:
        tracer.fail_request(ctx, "boom")
        raise


def conditional_close(tracer, work, ok):
    ctx = tracer.begin_request("direct")  # expect: RL010
    work()
    if ok:
        tracer.finish_request(ctx)


def leaky_open_span(telemetry, work):
    span = telemetry.open_span("request")  # expect: RL007, RL010
    work()
    return span


def clean_context_manager(tracer, work):
    with tracer.request("http") as ctx:
        work(ctx)


def clean_with_item(scope, tracer, work):
    with scope(tracer.begin_request("direct")):
        work()


def clean_try_finally(tracer, work):
    ctx = tracer.begin_request("direct")
    try:
        work()
    finally:
        tracer.finish_request(ctx)


def clean_immediate_close(tracer):
    # The reject() pattern: opened and unconditionally failed in one go.
    ctx = tracer.begin_request("http")
    return tracer.fail_request(ctx, "bad_json")


def clean_handoff(tracer, queue):
    # A suppressed hand-off: the draining worker owns the close.
    # repro-analyze: disable=RL010 — the worker closes contexts it dequeues.
    ctx = tracer.begin_request("batched")
    queue.append(ctx)
