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


REFERENCE_DATA = "/root/reference/data"


def reference_pdf(name: str) -> bytes:
    path = os.path.join(REFERENCE_DATA, name)
    if not os.path.exists(path):
        pytest.skip(f"reference corpus not available: {path}")
    with open(path, "rb") as f:
        return f.read()
