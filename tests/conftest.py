import os

import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    from pdfrust_ray.session import start_session

    start_session(num_cpus=4)
    yield
    ray.shutdown()


SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    """The ten sf0.001 testdata tables as DuckDB views; one connection
    per test module."""
    from tools.contract_check import connect

    if not os.path.isdir(SF):
        pytest.skip(f"testdata not available: {SF}")
    return connect(SF)


REFERENCE_DATA = "/root/reference/data"


def reference_pdf(name: str) -> bytes:
    path = os.path.join(REFERENCE_DATA, name)
    if not os.path.exists(path):
        pytest.skip(f"reference corpus not available: {path}")
    with open(path, "rb") as f:
        return f.read()
