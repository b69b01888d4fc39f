"""Domain-mixture optimization operators.

The sampling/mixing family in llmdata.py covers static allocation
(UniMax water-filling, temperature mixes, CCNet head/middle splits).
This module adds the ITERATIVE mixture optimizer shape: DoReMi-style
Group-DRO multiplicative weights over per-domain losses, in exact
integer fixed-point so the whole recursion carries a recursive-CTE
DuckDB twin (the kmeans_fixedpoint discipline applied to mixture
reweighting).

Scale notes target the 100-TB deployment: the only corpus-wide pass
is a hashed-bucket unigram count (n_buckets x n_sources bounded
exchange, the DSIR trick), the MW recursion itself touches only the
domain-sized weight vector on the driver.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

# fixed-point scales shared by engine and twin
_W_SCALE = 1_000_000  # initial per-domain weight
_F_SCALE = 1_000_000_000  # multiplicative-update denominator


def doremi_fixedpoint(
    sf_dir: str,
    n_buckets: int = 1024,
    rounds: int = 20,
    eta: int = 200,
) -> pd.DataFrame:
    """FIXED-POINT DoReMi — Group-DRO multiplicative-weights domain
    reweighting (DoReMi, Xie et al. 2023) with the per-domain loss
    replaced by a deterministic surprisal proxy, all arithmetic in
    integers so every round is exactly replayable in SQL.

    Loss proxy: the mean hashed-unigram surprisal of each source
    (domain), in micro-nats — words hash to n_buckets md5 buckets
    (bit-identical to the DSIR / nb_source_classifier kernel), the
    corpus-level bucket distribution defines p(b), and a domain's loss
    is the mean of floor(ln(N/c_b)*1e6 + 0.5) over its token stream
    (truncating integer mean). The excess vector lam_d = loss_d -
    min_e(loss_e) >= 0 is DoReMi's per-domain excess loss with the
    trained-proxy term fixed — documented simplification: the proxy
    model never updates, so the excess vector is static while the
    Group-DRO weights still equilibrate against the CURRENT mixture
    (domains worse than the weighted mixture mean gain weight, better
    ones lose it — the DRO dynamics, not a closed form).

    MW recursion (integers, R rounds):
      w_0[d]   = 1e6
      m_t      = (sum_d w_t[d] * lam_d) // (sum_d w_t[d])
      w'[d]    = w_t[d] * (1e9 + eta * (lam_d - m_t)) // 1e9
      w_t+1[d] = w'[d] * (D * 1e6) // sum_d w'[d]      (renormalize)
    Every division has a positive numerator and denominator, so
    DuckDB's truncating // and Python's floor // agree; an eta that
    would make the update factor non-positive (eta * excess >= 1e9)
    is refused with a ValueError naming the largest one. Token-less
    sources have no loss and are excluded on BOTH sides (the
    tokenizer_fertility LEFT-JOIN lesson, applied by construction).

    Distributed shape: ONE corpus scan emits per-batch
    (source, bucket, count) partials with batch-vocab-once hashing
    into an n_buckets-bounded groupby Sum — tokens never leave the
    task; the driver folds a (D x B) table, computes lam (D-sized),
    and runs the R-round recursion on D integers. Nothing is
    broadcast back; output is the domain mix plan.

    Output: (source, n_tokens, loss_micro_nats, excess_micro_nats,
    weight_ppm) ORDER BY source; weight_ppm = final weight * 1e6 //
    final total — the DoReMi mixture in parts-per-million.
    """
    from ray.data.aggregate import Sum

    from ..functions.md5vec import md5_prefix_u64

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "source"]
    )

    def count_partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        vocab = sorted({w for txt in texts for w in txt.split(" ") if w})
        bucket_of = dict(
            zip(
                vocab,
                (md5_prefix_u64([w.encode() for w in vocab]) % n_buckets).astype(
                    np.int64
                ),
            )
        )
        per: dict[str, np.ndarray] = {}
        for txt, src in zip(texts, t["source"].to_pylist()):
            words = [w for w in txt.split(" ") if w]
            if not words:
                continue
            b = np.fromiter(
                (bucket_of[w] for w in words), dtype=np.int64, count=len(words)
            )
            acc = per.get(src)
            if acc is None:
                acc = per[src] = np.zeros(n_buckets, dtype=np.int64)
            acc += np.bincount(b, minlength=n_buckets)
        srcs, bks, cs = [], [], []
        for src, acc in per.items():
            nz = np.flatnonzero(acc)
            srcs.extend([src] * len(nz))
            bks.append(nz)
            cs.append(acc[nz])
        if not srcs:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "bucket": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "bucket": pa.array(np.concatenate(bks), pa.int64()),
                "c": pa.array(np.concatenate(cs), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby(["source", "bucket"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    if not len(counts):
        return pd.DataFrame(
            {
                "source": pd.Series([], dtype="object"),
                "n_tokens": pd.Series([], dtype="int64"),
                "loss_micro_nats": pd.Series([], dtype="int64"),
                "excess_micro_nats": pd.Series([], dtype="int64"),
                "weight_ppm": pd.Series([], dtype="int64"),
            }
        )
    glob = counts.groupby("bucket")["c"].sum()
    n_total = int(glob.sum())
    # micro-nat surprisal per bucket, libm ln (bit-identical to DuckDB)
    val = {
        int(b): math.floor(math.log(n_total / int(c)) * 1000000.0 + 0.5)
        for b, c in glob.items()
    }
    per_src: dict[str, tuple[int, int]] = {}
    for src, grp in counts.groupby("source"):
        s = sum(int(c) * val[int(b)] for b, c in zip(grp["bucket"], grp["c"]))
        n = int(grp["c"].sum())
        per_src[str(src)] = (s // n, n)
    sources = sorted(per_src)
    loss = {d: per_src[d][0] for d in sources}
    m0 = min(loss.values())
    lam = {d: loss[d] - m0 for d in sources}
    top = max(lam.values())
    if eta * top >= _F_SCALE:
        raise ValueError(
            f"eta={eta} makes the update factor non-positive: the largest excess loss "
            f"is {top} micro-nats, so eta must be at most {(_F_SCALE - 1) // top}"
        )

    d_count = len(sources)
    w = {d: _W_SCALE for d in sources}  # python ints: overflow-free
    for _ in range(rounds):
        tot_w = sum(w.values())
        m_t = sum(w[d] * lam[d] for d in sources) // tot_w
        w1 = {
            d: w[d] * (_F_SCALE + eta * (lam[d] - m_t)) // _F_SCALE
            for d in sources
        }
        tot1 = sum(w1.values())
        w = {d: w1[d] * (d_count * _W_SCALE) // tot1 for d in sources}

    tot_final = sum(w.values())
    return pd.DataFrame(
        {
            "source": sources,
            "n_tokens": pd.Series(
                [per_src[d][1] for d in sources], dtype="int64"
            ),
            "loss_micro_nats": pd.Series(
                [loss[d] for d in sources], dtype="int64"
            ),
            "excess_micro_nats": pd.Series(
                [lam[d] for d in sources], dtype="int64"
            ),
            "weight_ppm": pd.Series(
                [w[d] * 1000000 // tot_final for d in sources], dtype="int64"
            ),
        }
    )


def _doremi_cte(n_buckets: int, rounds: int, eta: int) -> str:
    """Shared recursive-CTE prefix (through `mix`) for the DoReMi twin
    and the chained mix-plan twin."""
    return f"""
WITH RECURSIVE tok AS MATERIALIZED (
    SELECT source,
           CAST(CAST(('0x' || substr(md5(u.w), 1, 16)) AS UBIGINT)
                % {n_buckets} AS BIGINT) AS bucket
    FROM documents,
         UNNEST(list_filter(string_split(text, ' '), x -> x <> '')) AS u(w)
), perq AS MATERIALIZED (
    SELECT source, bucket, CAST(COUNT(*) AS BIGINT) AS c
    FROM tok GROUP BY 1, 2
), gcnt AS (
    SELECT bucket, SUM(c) AS cg FROM perq GROUP BY 1
), tots AS (
    SELECT SUM(cg) AS n FROM gcnt
), val AS (
    SELECT bucket,
           CAST(FLOOR(ln(CAST(tots.n AS DOUBLE) / cg) * 1000000.0 + 0.5)
                AS BIGINT) AS v
    FROM gcnt, tots
), smean AS (
    SELECT p.source,
           CAST(SUM(p.c * v.v) // SUM(p.c) AS BIGINT) AS loss_micro,
           CAST(SUM(p.c) AS BIGINT) AS n_tokens
    FROM perq p JOIN val v USING (bucket) GROUP BY 1
), lam AS MATERIALIZED (
    SELECT source, n_tokens, loss_micro,
           CAST(loss_micro - (SELECT MIN(loss_micro) FROM smean)
                AS BIGINT) AS lam
    FROM smean
), nsrc AS (
    SELECT COUNT(*) AS d FROM lam
), mw(r, source, w) AS (
    SELECT 0, source, CAST({_W_SCALE} AS HUGEINT) FROM lam
    UNION ALL
    (
      WITH prev AS (SELECT * FROM mw),
      rr AS (SELECT MAX(r) AS r FROM prev),
      mbar AS (
          SELECT SUM(p.w * l.lam) // SUM(p.w) AS m
          FROM prev p JOIN lam l USING (source)
      ),
      upd AS (
          SELECT p.source,
                 p.w * ({_F_SCALE} + {eta} * (l.lam - mbar.m))
                     // {_F_SCALE} AS w1
          FROM prev p JOIN lam l USING (source), mbar
      ),
      tot AS (SELECT SUM(w1) AS t FROM upd)
      SELECT rr.r + 1, u.source,
             CAST(u.w1 * (nsrc.d * {_W_SCALE}) // tot.t AS HUGEINT)
      FROM upd u, tot, rr, nsrc WHERE rr.r < {rounds}
    )
), final_w AS (
    SELECT source, w FROM mw WHERE r = (SELECT MAX(r) FROM mw)
), mix AS MATERIALIZED (
    SELECT l.source,
           l.n_tokens,
           l.loss_micro AS loss_micro_nats,
           l.lam AS excess_micro_nats,
           CAST(f.w * 1000000 // (SELECT SUM(w) FROM final_w)
                AS BIGINT) AS weight_ppm
    FROM lam l JOIN final_w f USING (source)
)"""


def doremi_fixedpoint_sql(
    n_buckets: int = 1024,
    rounds: int = 20,
    eta: int = 200,
) -> str:
    """Exact twin: identical hash buckets, micro-nat quantization and
    truncating means; the MW recursion replayed one round per
    recursive-CTE step over the domain-sized weight table (HUGEINT
    intermediates — products reach ~1e23)."""
    return (
        _doremi_cte(n_buckets, rounds, eta)
        + """
SELECT * FROM mix ORDER BY source
    """
    )


def doremi_mix_plan(
    sf_dir: str,
    budget: int = 20_000,
    epochs: int = 2,
    n_buckets: int = 1024,
    rounds: int = 20,
    eta: int = 200,
) -> pd.DataFrame:
    """CAPSTONE: turn the DoReMi mixture into an executable token
    allocation — the step a pretraining-data owner actually ships.

    Each source's target is its DoReMi share of the budget
    (budget * weight_ppm // 1e6), capped at `epochs` passes over its
    available tokens (the UniMax epoch-cap principle: upweighting a
    domain must not mean 40 epochs of a tiny domain). Budget left over
    from capping (and ppm truncation) spills to UNCAPPED sources in
    deterministic order — highest excess loss first (source-asc
    tie-break), each taking up to its own remaining cap headroom:
    DoReMi says the hard domains deserve the marginal token. If every
    source caps out, the residue is reported as unallocated.

    Exact twin: chains the full DoReMi recursive CTE, then replays the
    greedy spill one source per recursive round, threading the
    remaining budget. Output: (source, n_tokens, excess_micro_nats,
    weight_ppm, target_tokens, cap_tokens, alloc_tokens) ORDER BY
    source; sum(alloc_tokens) == min(budget, sum(cap_tokens)).
    """
    base = doremi_fixedpoint(
        sf_dir, n_buckets=n_buckets, rounds=rounds, eta=eta
    )
    srcs = list(base["source"])
    n_tok = dict(zip(srcs, (int(x) for x in base["n_tokens"])))
    lam = dict(zip(srcs, (int(x) for x in base["excess_micro_nats"])))
    ppm = dict(zip(srcs, (int(x) for x in base["weight_ppm"])))
    target = {d: budget * ppm[d] // 1_000_000 for d in srcs}
    cap = {d: epochs * n_tok[d] for d in srcs}
    alloc = {d: min(target[d], cap[d]) for d in srcs}
    leftover = budget - sum(alloc.values())
    for d in sorted(srcs, key=lambda d: (-lam[d], d)):
        if leftover <= 0:
            break
        if alloc[d] >= cap[d]:
            continue
        give = min(leftover, cap[d] - alloc[d])
        alloc[d] += give
        leftover -= give
    return pd.DataFrame(
        {
            "source": srcs,
            "n_tokens": pd.Series([n_tok[d] for d in srcs], dtype="int64"),
            "excess_micro_nats": pd.Series(
                [lam[d] for d in srcs], dtype="int64"
            ),
            "weight_ppm": pd.Series([ppm[d] for d in srcs], dtype="int64"),
            "target_tokens": pd.Series(
                [target[d] for d in srcs], dtype="int64"
            ),
            "cap_tokens": pd.Series([cap[d] for d in srcs], dtype="int64"),
            "alloc_tokens": pd.Series(
                [alloc[d] for d in srcs], dtype="int64"
            ),
        }
    )


def doremi_mix_plan_sql(
    budget: int = 20_000,
    epochs: int = 2,
    n_buckets: int = 1024,
    rounds: int = 20,
    eta: int = 200,
) -> str:
    """Exact twin: DoReMi CTE chain + one-source-per-round greedy
    spill recursion in excess-desc order."""
    return (
        _doremi_cte(n_buckets, rounds, eta)
        + f"""
, base AS MATERIALIZED (
    SELECT source, n_tokens, excess_micro_nats, weight_ppm,
           CAST({budget} * weight_ppm // 1000000 AS BIGINT) AS target_tokens,
           CAST({epochs} * n_tokens AS BIGINT) AS cap_tokens,
           CAST(LEAST({budget} * weight_ppm // 1000000,
                      {epochs} * n_tokens) AS BIGINT) AS alloc0
    FROM mix
), ranked AS (
    SELECT source, alloc0, cap_tokens,
           row_number() OVER (ORDER BY excess_micro_nats DESC, source)
               AS rn
    FROM base WHERE alloc0 < cap_tokens
), spill(rn, rem, give) AS (
    SELECT 0,
           CAST({budget} - (SELECT SUM(alloc0) FROM base) AS BIGINT),
           CAST(0 AS BIGINT)
    UNION ALL
    SELECT r.rn,
           s.rem - LEAST(s.rem, r.cap_tokens - r.alloc0),
           LEAST(s.rem, r.cap_tokens - r.alloc0)
    FROM spill s JOIN ranked r ON r.rn = s.rn + 1
)
SELECT b.source, b.n_tokens, b.excess_micro_nats, b.weight_ppm,
       b.target_tokens, b.cap_tokens,
       CAST(b.alloc0 + COALESCE(sp.give, 0) AS BIGINT) AS alloc_tokens
FROM base b
LEFT JOIN ranked r ON r.source = b.source
LEFT JOIN spill sp ON sp.rn = r.rn
ORDER BY b.source
    """
    )
