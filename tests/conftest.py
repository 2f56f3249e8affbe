import time

from hypothesis import settings

# one profile for every property test: reproducible examples, no example
# database on disk, no per-example deadline (the CLI and solver examples run
# real solves whose time depends on the host)
settings.register_profile(
    "rstokes", max_examples=25, deadline=None, derandomize=True, database=None
)
settings.load_profile("rstokes")


def pytest_sessionstart(session):
    session.config._suite_started = time.perf_counter()


def pytest_collection_modifyitems(session, config, items):
    # the wall-time budget test must observe every other test, so run it last
    tail = [it for it in items if "wall_time" in it.name]
    items[:] = [it for it in items if "wall_time" not in it.name] + tail
