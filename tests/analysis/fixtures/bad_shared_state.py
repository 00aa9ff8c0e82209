"""Engine state mutated off the dispatch queue — RPR103 fixture.

Linted with ``module="repro.serve.<fixture>"`` so the serve-only rules
apply; on its real tests/ path the module resolves under ``tests.`` and
the whole file is silent.
"""


async def _dispatch_loop(engine, queue):
    # The dispatcher task is the single writer: mutations here are fine.
    while True:
        job = await queue.get()
        if job is None:
            break
        engine.admit(job)


async def handle_connection(self, engine, request):
    engine.total_requests = engine.total_requests + 1
    engine.jobs[request.id] = request
    self.engine.record_shed(request.tenant)
    engine.depository.record_completion(request.tenant, 1.0)
    engine._step.catch_up(request.arrival)  # the shared admission step
    engine._step.remap(request.arrival)
    snapshot = engine.snapshot()  # read-only access stays legal
    return snapshot


def sync_helper(engine):
    engine.admit(None)  # not a coroutine: the queue discipline is async-only
