"""Cardinality sketches: a deterministic, SQL-oracle-able HyperLogLog.

The 100-TB staple the exact ``distinct`` path can't provide: an
approximate COUNT(DISTINCT) whose state is a FIXED 2^p bytes no matter
how many rows stream through — per-batch register partials (one
``map_batches`` pass, one small row per block), an elementwise-max fold
on the driver (O(blocks) rows of 2^p bytes, never O(rows)), and the
standard bias-corrected estimator.

Conformance design (unlike most HLLs, this one is EXACTLY replayable in
SQL): the row hash is :func:`fs_crawler_ray.text.md5_lower64`, which is
bit-identical to DuckDB's ``md5_number_lower``; the register value is
``53 - bit_length(rest)`` over the low 52 bits (``bin(rest)`` length in
SQL, ``frexp`` exponent here — both exact integer ops); and the
indicator sum is kept as an exact INTEGER ``Z = Σ 2^(53 - ρ_j)``
(HUGEINT in SQL, Python int here) so no float accumulation order can
diverge. DuckDB's own ``approx_count_distinct`` is a different HLL and
would not hash-match; this one does, register for register.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray
import ray.data

#: log2 of the register count. m = 4096 → standard error ≈ 1.04/√m ≈ 1.6%.
DEFAULT_P = 12


def _registers_of(hashes: np.ndarray, p: int) -> np.ndarray:
    """uint64 hashes → dense uint8 register array of size 2^p
    (max ρ per bucket). ρ = leading-zeros-of-low-(64-p)-bits + 1 =
    (64 - p + 1) - bit_length(rest); rest == 0 → 64 - p + 1."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(hashes) == 0:
        return regs
    h = hashes.astype(np.uint64)
    bucket = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h & np.uint64((1 << (64 - p)) - 1)
    # exact bit_length for ints < 2^53: frexp exponent of the float64
    # (all such ints are exactly representable)
    bl = np.frexp(rest.astype(np.float64))[1].astype(np.int64)
    rho = np.where(rest == 0, 64 - p + 1, 64 - p + 1 - bl).astype(np.uint8)
    np.maximum.at(regs, bucket, rho)
    return regs


def _value_hashes(col_a) -> np.ndarray:
    """md5_lower64 of a column's NON-NULL values, as DuckDB's
    ``md5_number_lower(CAST(col AS VARCHAR))``. SQL hashes a null to
    NULL, which drops out of every register and bottom-k, so nulls are
    dropped here rather than hashed as the string ``'None'``."""
    import pyarrow.compute as pc

    from fs_crawler_ray.text import md5_lower64

    col_a = pc.drop_null(col_a)
    if not (pa.types.is_string(col_a.type) or pa.types.is_large_string(col_a.type)):
        # Arrow's int→string cast prints the same decimal digits as
        # DuckDB's CAST(... AS VARCHAR), keeping the md5s aligned
        col_a = pc.cast(col_a, pa.string())
    return md5_lower64(np.asarray(col_a.to_pylist(), dtype=object))


def hll_sketch(ds: ray.data.Dataset, col: str, p: int = DEFAULT_P) -> np.ndarray:
    """Distributed register build: one streaming ``map_batches`` pass
    emitting a 2^p-byte register partial per block, elementwise-max
    folded on the driver (fixed-size state — the whole point). Null
    values are not counted (SQL ``COUNT(DISTINCT)``)."""

    def partial(t: pa.Table) -> pa.Table:
        regs = _registers_of(_value_hashes(t[col]), p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    parts = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow").take_all()
    regs = np.zeros(1 << p, dtype=np.uint8)
    for r in parts:
        regs = np.maximum(regs, np.frombuffer(r["regs"], dtype=np.uint8))
    return regs


def hll_merge(*register_sets: np.ndarray) -> np.ndarray:
    """Sketch union = elementwise max (the property that makes HLL a
    distributed aggregate: partials combine in any order/grouping)."""
    out = register_sets[0].copy()
    for r in register_sets[1:]:
        out = np.maximum(out, r)
    return out


def hll_estimate(regs: np.ndarray, p: int = DEFAULT_P) -> dict:
    """Bias-corrected HLL estimator with the standard small-range
    (linear counting) correction. Integer Z (Σ 2^(53-ρ) at p=12) keeps
    the arithmetic order-independent and SQL-replayable; ``est`` is
    truncated (floor) at 4 decimals so both engines round identically.
    """
    m = 1 << p
    rho_max = 64 - p + 1
    z_scaled = 0  # Python int: exact Σ 2^(rho_max - ρ_j)
    counts = np.bincount(regs.astype(np.int64), minlength=rho_max + 1)
    for rho, n in enumerate(counts.tolist()):
        if n:
            z_scaled += n * (1 << (rho_max - rho))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    raw = alpha * m * m * float(1 << rho_max) / float(z_scaled)
    n_zero = int(counts[0])
    if raw <= 2.5 * m and n_zero > 0:
        est = m * math.log(m / n_zero)
    else:
        est = raw
    return {
        "m": m,
        "n_zero": n_zero,
        # exceeds int64 when many registers are empty → decimal string
        # (HUGEINT cast to VARCHAR on the SQL side)
        "z_scaled": str(z_scaled),
        "est": math.floor(est * 10000.0) / 10000.0,
    }


def hll_distinct(ds: ray.data.Dataset, col: str, p: int = DEFAULT_P) -> pa.Table:
    """One-row summary table ``(m, n_zero, z_scaled, est)`` — the
    driver-facing query surface (exactly reproducible by the DuckDB
    oracle, see module docstring)."""
    d = hll_estimate(hll_sketch(ds, col, p), p)
    return pa.table({
        "m": pa.array([d["m"]], pa.int64()),
        "n_zero": pa.array([d["n_zero"]], pa.int64()),
        "z_scaled": pa.array([d["z_scaled"]], pa.string()),
        "est": pa.array([d["est"]], pa.float64()),
    })


def hll_distinct_by(ds: ray.data.Dataset, col: str, by: str,
                    p: int = DEFAULT_P, num_partitions: int = 8) -> ray.data.Dataset:
    """Per-group approximate COUNT(DISTINCT ``col``) GROUP BY ``by`` —
    the engagement-pipeline staple (distinct users per day/source) at a
    fixed 2^p bytes of state PER GROUP. Per-batch partials emit one
    ``(by, regs)`` row per group per block (O(groups × blocks), never
    O(rows)); one bucketed shuffle on ``by`` merges registers by
    elementwise max and emits each group's summary row. Same
    bit-exactly SQL-replayable layout as :func:`hll_distinct`. Rows with
    a null ``col`` are dropped first (a group with none left has no
    row); null ``by`` keys form one NULL group, as SQL ``GROUP BY``
    does."""
    import pyarrow.compute as pc

    from fs_crawler_ray.relops import _BUCKET_COL, _add_bucket

    def _encode(by_a) -> tuple[pa.Array, np.ndarray]:
        """(dictionary, per-row codes); a null key is a dictionary entry."""
        if isinstance(by_a, pa.ChunkedArray):
            by_a = by_a.combine_chunks()
        enc = pc.dictionary_encode(by_a, null_encoding="encode")
        return enc.dictionary, enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[col]))
        dictionary, codes = _encode(t[by])
        hashes = _value_hashes(t[col])
        out_regs = []
        for g in range(len(dictionary)):
            regs = _registers_of(hashes[codes == g], p)
            out_regs.append(regs.tobytes())
        return pa.table({
            by: dictionary,
            "regs": pa.array(out_regs, pa.binary()),
        })

    parts = ds.select_columns([by, col]).map_batches(partial, batch_format="pyarrow")

    def per_group(t: pa.Table) -> pa.Table:
        # one shuffle bucket may hold SEVERAL `by` keys — merge and
        # estimate per key within the group
        t = t.drop_columns([_BUCKET_COL])
        dictionary, codes = _encode(t[by])
        bufs = t["regs"].to_pylist()
        out = {by: [], "m": [], "n_zero": [], "z_scaled": [], "est": []}
        for g, key in enumerate(dictionary.to_pylist()):
            regs = np.zeros(1 << p, dtype=np.uint8)
            for i in np.flatnonzero(codes == g):
                regs = np.maximum(regs, np.frombuffer(bufs[i], dtype=np.uint8))
            d = hll_estimate(regs, p)
            out[by].append(key)
            for k in ("m", "n_zero", "z_scaled", "est"):
                out[k].append(d[k])
        return pa.table({
            by: pa.array(out[by], dictionary.type),
            "m": pa.array(out["m"], pa.int64()),
            "n_zero": pa.array(out["n_zero"], pa.int64()),
            "z_scaled": pa.array(out["z_scaled"], pa.string()),
            "est": pa.array(out["est"], pa.float64()),
        })

    return _add_bucket(parts, [by], num_partitions).groupby(
        _BUCKET_COL, num_partitions=num_partitions
    ).map_groups(per_group, batch_format="pyarrow")


# ---------------------------------------------------------------------
# KMV (k-minimum-values / bottom-k) sketch: distinct-count AND set
# overlap between sources without a join — same SQL-replayable design
# as the HLL above (md5_lower64 hashes, integer state, floor-truncated
# float outputs).
# ---------------------------------------------------------------------

DEFAULT_K = 1024


def kmv_sketch(ds: ray.data.Dataset, col: str, k: int = DEFAULT_K) -> np.ndarray:
    """The ``k`` smallest md5-lower64 hashes of the column's DISTINCT
    values, ascending uint64. Per-block bottom-k partials (one ≤k-row
    chunk per block — O(k × blocks) crosses to the driver, never
    O(rows)), merged by a sorted-unique bottom-k fold. Null values are
    skipped."""

    def partial(t: pa.Table) -> pa.Table:
        h = np.unique(_value_hashes(t[col]))
        return pa.table({"h": pa.array(h[:k].astype(np.uint64), pa.uint64())})

    parts = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow").take_all()
    allh = np.unique(np.asarray([r["h"] for r in parts], dtype=np.uint64))
    return allh[:k]


def kmv_estimate_distinct(bottom: np.ndarray, k: int = DEFAULT_K) -> float:
    """(k-1)·2^64 / h_k when the sketch saturated; exact count below."""
    if len(bottom) < k:
        return float(len(bottom))
    # float op order mirrors the SQL oracle exactly: round h_k to
    # double FIRST, then + 1.0 (CAST(hk AS DOUBLE) + 1.0) — adding in
    # integer space before the cast can land one ulp away
    est = (k - 1) * 18446744073709551616.0 / (float(int(bottom[k - 1])) + 1.0)
    return math.floor(est * 10000.0) / 10000.0


def kmv_overlap(ds_a: ray.data.Dataset, ds_b: ray.data.Dataset, col: str,
                k: int = DEFAULT_K) -> pa.Table:
    """Set-overlap summary between two sources over ``col`` WITHOUT a
    join: sketch each side (bottom-k of distinct hashes), take the
    union's bottom-k, and count how many of those reference points lie
    in both sides — ``jaccard ≈ n_both / |bottom_k(A ∪ B)|`` (the
    standard KMV/MinHash overlap estimator). All counts are exact
    integers over deterministic md5 hashes, so a DuckDB oracle
    reproduces every column bit-for-bit."""
    a = kmv_sketch(ds_a, col, k)
    b = kmv_sketch(ds_b, col, k)
    union = np.unique(np.concatenate([a, b]))[:k]
    in_a = np.isin(union, a)
    in_b = np.isin(union, b)
    n_ref = len(union)
    n_both = int((in_a & in_b).sum())
    jac = (math.floor(n_both / n_ref * 10000.0) / 10000.0) if n_ref else 0.0
    return pa.table({
        "k": pa.array([k], pa.int64()),
        "n_ref": pa.array([n_ref], pa.int64()),
        "n_both": pa.array([n_both], pa.int64()),
        "jaccard": pa.array([jac], pa.float64()),
        "est_distinct_a": pa.array([kmv_estimate_distinct(a, k)], pa.float64()),
        "est_distinct_b": pa.array([kmv_estimate_distinct(b, k)], pa.float64()),
    })
