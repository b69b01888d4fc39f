import os

import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    # workers must import pdfrust_ray even when pytest runs from elsewhere
    from pdfrust_ray.session import put_repo_on_pythonpath

    put_repo_on_pythonpath(os.environ)
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


REFERENCE_DATA = "/root/reference/data"


def reference_pdf(name: str) -> bytes:
    path = os.path.join(REFERENCE_DATA, name)
    if not os.path.exists(path):
        pytest.skip(f"reference corpus not available: {path}")
    with open(path, "rb") as f:
        return f.read()
