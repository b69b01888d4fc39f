"""pdfrust_ray — a Ray-Data-native transcript main-content extraction engine.

Re-implements, from scratch, the extraction semantics of the reference
pdfrust engine (see /root/reference, cited per-module as file:line) as a
pure-Python library (`pdfrust_ray.pdfref`), adds DOM-heuristic HTML
boilerplate stripping (`pdfrust_ray.html`), and runs both at scale as
Ray Data pipelines (`pdfrust_ray.pipelines`) over Parquet transcript
shards: zero-copy Arrow batches, extract stages run as tasks in warm
pooled workers with a per-process memo, an explicit ordering shuffle,
resumable partitioned output.
"""

__version__ = "0.1.0"
