"""Workloads of the end-to-end query benchmark.

Three closed-loop, single-client workloads drive the public
``LawsDatabase`` API at its shipped defaults (5% verify sampling,
observability on, ``ingest_batch_size=512``); the only non-default
setting is ``verify_seed``, taken from the benchmark seed.  Every table and
every query literal is generated from that seed before it reaches the
program.

``model_serving``
    Answering from laws: point, virtual-table, range-aggregate,
    grouped-model, grouped-hybrid and analytic-aggregate routes over three
    modelled tables, with fresh literals on every query so the distinct
    SQL texts overflow the 128-entry parse and plan caches.
``exact_analytics``
    Ten fixed dashboard texts under ``AccuracyContract(mode="exact")`` over
    a range-partitioned fact table and a dimension table: the working set
    fits the caches, and every answer is checked against NumPy.
``stream_ingest``
    512-row ``ingest()`` batches on a durable store, two model-route
    queries after each batch, ``maintain()`` every 40 batches and
    ``checkpoint()`` every 100; then close without a checkpoint and reopen.

``model_serving`` and ``exact_analytics`` run for the wall-clock budget;
``stream_ingest`` ingests a fixed number of batches scaled from it (see
``StreamIngest.batches_per_second``).  No workload stops before its
*fingerprint prefix* (a fixed number of operations) is done; the route,
verify and refit counts of that prefix depend only on the seed.

The gated timings are rescaled to a reference host speed by a speed probe
that runs in a helper process (``probe.py``); see :func:`end_to_end`.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Durable stores of ``stream_ingest`` live here, inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"


#: Table sizes; ``smoke`` runs all three workloads in a few seconds.
SIZES: dict[str, dict[str, int]] = {
    "full": {
        "readings": 1_000_000,
        "sales": 250_000,
        "plants": 100_000,
        "fact": 1_000_000,
        "dim": 20_000,
        "sensors": 200_000,
        "setup_reps": 5,
        "oracle_per_shape": 3,
        "floor_reps": 5,
        "reopen_reps": 3,
    },
    "smoke": {
        "readings": 20_000,
        "sales": 5_000,
        "plants": 4_000,
        "fact": 20_000,
        "dim": 500,
        "sensors": 8_000,
        "setup_reps": 1,
        "oracle_per_shape": 2,
        "floor_reps": 1,
        "reopen_reps": 1,
    },
}

#: The tail percentile of each workload: the highest of p99/p95/p90 with at
#: least ten samples beyond it at the 20-second run length of BENCHMARK.json.
TAIL_PCT = {"model_serving": 99, "exact_analytics": 90, "stream_ingest": 95}

MODEL_SHAPES = ("point", "vtable", "range", "grouped", "hybrid", "analytic")
EXACT_SHAPES = ("filter", "between", "in_list", "groupby", "join", "topk", "prune")


def _contract(mode: str) -> Any:
    from repro import AccuracyContract

    return AccuracyContract(mode=mode)


@dataclass
class QueryRecord:
    category: str
    route: str
    ms: float
    verified: bool = False
    pages: float = 0.0


@dataclass
class RunResult:
    """Everything one workload run measured, checked and counted."""

    workload: str
    seed: int
    size: str
    setup_s: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    ops: int = 0
    records: list[QueryRecord] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    #: name -> (value, unit, sample count) for workload-specific figures.
    extra: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    fingerprint: dict[str, Any] = field(default_factory=dict)
    rel_errors: list[float] = field(default_factory=list)
    coverage: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: Speed probe readings around the set-ups and during the timed loop.
    setup_probe_ms: list[float] = field(default_factory=list)
    probe_ms: list[float] = field(default_factory=list)

    def latencies(self, category: str | None = None, route: str | None = None) -> list[float]:
        return [
            r.ms
            for r in self.records
            if (category is None or r.category == category) and (route is None or r.route == route)
        ]


# -- small helpers ---------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct)) if values else 0.0


#: Median milliseconds of the speed probe (``probe.py``) on the reference
#: host (a 2-vCPU Xeon VM at 2.0 GHz); ``*_at_ref_speed`` metrics and
#: ``setup_s`` rescale to it.
REF_PROBE_MS = 3.4
PROBE_EVERY_S = 0.25
#: Readings taken before and after each set-up.
PROBES_AROUND_SETUP = 3


def current_cpu() -> str:
    """The CPU this process last ran on, or "" where that is unknown."""
    try:
        stat = Path("/proc/self/stat").read_text()
    except OSError:
        return ""
    return stat.rsplit(")", 1)[1].split()[36]


class SpeedProbe:
    """The helper process of ``probe.py``; one reading per :meth:`read`."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        #: Wall seconds the benchmark spent waiting for readings.
        self.wait_s = 0.0
        try:
            self.read()  # waits until the helper has imported NumPy
        except BaseException:
            self.close()
            raise

    def read(self) -> float:
        started = perf_counter()
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.write(f"{current_cpu()}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        self.wait_s += perf_counter() - started
        if not line:
            raise RuntimeError("the speed probe helper exited")
        return float(line)

    def close(self) -> None:
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_file_hash() -> str:
    path = ROOT / "BENCH_hotpaths.json"
    if not path.is_file():
        return "absent"
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def rows_match(got: list[tuple], want: list[tuple]) -> bool:
    if len(got) != len(want):
        return False
    for row_got, row_want in zip(got, want):
        if len(row_got) != len(row_want):
            return False
        for a, b in zip(row_got, row_want):
            if isinstance(b, float) or isinstance(a, float):
                if a is None or b is None or not _close(float(a), float(b)):
                    return False
            elif a != b:
                return False
    return True


def _numpy_table(name: str, arrays: dict[str, np.ndarray]) -> Any:
    from repro.db import DataType, Schema, Table

    schema = Schema.of(
        **{
            col: DataType.INT64 if arr.dtype.kind in "iu" else DataType.FLOAT64
            for col, arr in arrays.items()
        }
    )
    return Table.from_numpy(name, schema, arrays)


# -- the workload base --------------------------------------------------------------------


class Workload:
    """One workload: set-up, a deterministic operation stream, checks."""

    name = ""
    #: Operations that always run, whatever the time budget.
    fingerprint_ops = 0

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = size
        self.sizes = SIZES[size]
        self.db: Any = None
        self.result = RunResult(self.name, seed, size)
        self.timed = False

    # Subclasses implement generate(), build(), step(i) and finish().
    def generate(self) -> None:
        """Make the tables' arrays and the query literals from the seed.

        This is the benchmark's own work and runs before the set-up timer
        starts; :meth:`build` hands the arrays to the program.
        """
        raise NotImplementedError

    def build(self) -> None:
        """The timed set-up: load, fit, partition or open, warm up."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Reference answers, computed after the set-up timer stops."""

    def step(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Post-loop checks (oracle comparisons, recovery)."""

    def cleanup(self) -> None:
        """Release what build() created outside the process."""

    def done(self, index: int, elapsed: float, seconds: float) -> bool:
        """Whether the timed loop stops before operation ``index``."""
        return index >= self.fingerprint_ops and elapsed >= seconds

    def fail(self, what: str) -> None:
        self.result.failures.append(what)

    def run_query(self, category: str, sql: str, contract: Any) -> Any:
        """Execute and time one query; exceptions count as failures."""
        self.result.attempted += 1
        started = perf_counter()
        try:
            answer = self.db.query(sql, contract)
        except Exception as exc:  # noqa: BLE001 - every failure is listed, not raised
            self.result.records.append(
                QueryRecord(category, "error", (perf_counter() - started) * 1e3)
            )
            self.fail(f"{sql}: {type(exc).__name__}: {exc}")
            return None
        ms = (perf_counter() - started) * 1e3
        io = (
            answer.approx.io
            if answer.approx is not None
            else (answer.query_result.io if answer.query_result is not None else {})
        )
        self.result.records.append(
            QueryRecord(
                category,
                answer.route_taken,
                ms,
                verified=answer.feedback is not None,
                pages=float(io.get("pages_read", 0.0)),
            )
        )
        return answer

    # -- counters for the fingerprint -----------------------------------------------------

    def counters(self) -> dict[str, float]:
        db = self.db
        planner = db.planner.plan_cache_info()
        parse = db.database.plan_cache_info()
        flight = db.obs.flight.report() if db.obs.flight is not None else {}
        return {
            "plan_cache.hits": planner["hits"],
            "plan_cache.misses": planner["misses"],
            "parse_cache.hits": parse["hits"],
            "parse_cache.misses": parse["misses"],
            "flight.flushes": flight.get("flushes", 0),
            "recalibrations": db.calibration_report().get("recalibrations", 0),
        }

    def refits(self) -> int:
        return 0

    def snapshot_fingerprint(self, start: dict[str, float]) -> dict[str, Any]:
        now = self.counters()
        records = self.result.records
        return {
            "ops": self.result.ops,
            "queries": len(records),
            "routes": dict(sorted(Counter(r.route for r in records).items())),
            "verifies": sum(1 for r in records if r.verified),
            "refits": self.refits(),
            **{key: now[key] - start[key] for key in now},
        }


# -- model_serving --------------------------------------------------------------------------


class ModelServing(Workload):
    """Answering from laws, with a working set larger than the caches."""

    name = "model_serving"
    fingerprint_ops = 600

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        n = self.sizes["readings"]
        icpt = rng.uniform(5.0, 50.0, 16)
        slope = rng.uniform(0.2, 2.0, 16)
        g = rng.integers(0, 16, n)
        x = rng.integers(0, 32, n).astype(float)
        y = icpt[g] + slope[g] * x + rng.normal(0.0, 1.0, n)
        readings = {"g": g, "x": x, "y": y}

        m = self.sizes["sales"]
        u = rng.uniform(0.0, 100.0, m)
        v = rng.uniform(1.0, 10.0) + rng.uniform(0.5, 1.5) * u + rng.normal(0.0, 2.0, m)
        sales = {"u": u, "v": v}

        p = self.sizes["plants"]
        fitted = p * 4 // 5
        p_icpt = rng.uniform(2.0, 20.0, 10)
        p_slope = rng.uniform(0.1, 1.0, 10)
        k = rng.integers(0, 8, fitted)
        t = rng.integers(0, 20, fitted).astype(float)
        w = p_icpt[k] + p_slope[k] * t + rng.normal(0.0, 0.5, fitted)
        plants = {"k": k, "t": t, "w": w}
        self.tables = (
            ("readings", readings, "y ~ linear(x)", "g"),
            ("sales", sales, "v ~ linear(u)", None),
            ("plants", plants, "w ~ linear(t)", "k"),
        )
        extra = p - fitted
        k2 = rng.integers(8, 10, extra)
        t2 = rng.integers(0, 20, extra).astype(float)
        w2 = p_icpt[k2] + p_slope[k2] * t2 + rng.normal(0.0, 0.5, extra)
        self.late_plants = {"k": k2.tolist(), "t": t2.tolist(), "w": w2.tolist()}
        self.rng = np.random.default_rng([self.seed, 2])
        self.contract = _contract("approx")
        self.samples: dict[str, list[tuple[str, Any]]] = {s: [] for s in MODEL_SHAPES}

    def build(self) -> None:
        from repro import LawsDatabase

        db = LawsDatabase(verify_seed=self.seed)
        for name, arrays, formula, group_by in self.tables:
            db.register_table(_numpy_table(name, arrays))
            self._fit(db, name, formula, group_by)
        # Two groups arrive after capture: grouped queries over plants then
        # need an exact fill-in for them (the grouped-hybrid route).
        db.ingest("plants", self.late_plants, flush=True)
        self.db = db
        # Warm-up: first touch of every table computes its statistics.
        for table, column in (("readings", "y"), ("sales", "v"), ("plants", "w")):
            db.query(f"SELECT count({column}) AS n FROM {table}", _contract("exact"))

    def _fit(self, db: Any, table: str, formula: str, group_by: str | None) -> None:
        report = db.fit(table, formula, group_by=group_by)
        if not report.accepted:
            raise RuntimeError(f"{table}: model {formula!r} was not accepted")

    def next_query(self, index: int) -> tuple[str, str]:
        rng = self.rng
        shape = MODEL_SHAPES[index % len(MODEL_SHAPES)]
        if shape == "point":
            g, x = rng.integers(0, 16), rng.integers(0, 32)
            return shape, f"SELECT y FROM readings WHERE g = {g} AND x = {x}"
        if shape == "vtable":
            g, lo = rng.integers(0, 16), rng.integers(0, 29)
            return shape, f"SELECT x, y FROM readings WHERE g = {g} AND x >= {lo} ORDER BY x"
        if shape == "range":
            g = rng.integers(0, 16)
            a = rng.integers(0, 28)
            b = rng.integers(a + 2, 32)
            return shape, f"SELECT avg(y) AS m FROM readings WHERE g = {g} AND x BETWEEN {a} AND {b}"
        if shape == "grouped":
            a = rng.integers(0, 28)
            b = rng.integers(a + 2, 32)
            return shape, f"SELECT g, avg(y) AS m FROM readings WHERE x BETWEEN {a} AND {b} GROUP BY g"
        if shape == "hybrid":
            a = rng.integers(0, 16)
            b = rng.integers(a + 2, 20)
            return shape, f"SELECT k, avg(w) AS m FROM plants WHERE t BETWEEN {a} AND {b} GROUP BY k"
        function = ("avg", "sum", "min", "max")[(index // len(MODEL_SHAPES)) % 4]
        return shape, f"SELECT {function}(v) AS a FROM sales"

    def step(self, index: int) -> None:
        shape, sql = self.next_query(index)
        answer = self.run_query(shape, sql, self.contract)
        if answer is not None and len(self.samples[shape]) < self.sizes["oracle_per_shape"]:
            self.samples[shape].append((sql, answer))

    def finish(self) -> None:
        exact = _contract("exact")
        for shape, samples in self.samples.items():
            for sql, answer in samples:
                score_answer(self, shape, sql, answer, exact, None)


def _oracle_sql(shape: str, sql: str) -> str:
    """The exact query whose rows are the reference for a model answer.

    Point and virtual-table answers are per-row predictions, so their
    reference is the raw rows at the predicted inputs; aggregates are
    checked against the same statement executed exactly.
    """
    if shape == "vtable":
        return sql.replace(" ORDER BY x", "")
    return sql


def score_answer(
    workload: Workload, shape: str, sql: str, answer: Any, exact: Any, snapshot: Any
) -> None:
    """Compare one model answer with exact execution on the same snapshot.

    Model-served values add to the relative-error and band-coverage
    samples; group values the hybrid route computed exactly must equal the
    oracle, and every disagreement there is a failure.
    """
    result = workload.result
    try:
        oracle = workload.db.query(_oracle_sql(shape, sql), exact, snapshot=snapshot)
    except Exception as exc:  # noqa: BLE001
        workload.fail(f"oracle for {sql}: {type(exc).__name__}: {exc}")
        return
    approx = answer.approx
    names = answer.table.schema.names
    if approx is None or answer.is_exact:
        if not rows_match(answer.rows(), oracle.rows()):
            workload.fail(f"{sql}: exact answer differs from the oracle")
        return
    if approx.group_routes:
        key_cols = [c for c in names if c not in approx.column_errors]
        positions = {c: i for i, c in enumerate(oracle.table.schema.names)}
        want = {
            tuple(row[positions[c]] for c in key_cols): row for row in oracle.rows()
        }
        for key, values in approx.group_values.items():
            row = want.get(key)
            if row is None:
                workload.fail(f"{sql}: group {key} missing from the oracle")
                continue
            for column, value in values.items():
                truth = float(row[positions[column]])
                if approx.group_routes.get(key) == "exact":
                    if not _close(float(value), truth):
                        workload.fail(f"{sql}: exact group {key} differs from the oracle")
                    continue
                band = approx.group_error_estimate(key, column)
                _add_value(result, float(value), [truth], band.standard_error if band else None)
        return
    if shape in ("point", "vtable"):
        # Per-row predictions: reference = raw rows at the same inputs.
        column = names[-1]
        se = approx.column_errors.get(column)
        if shape == "point":
            _add_value(result, float(answer.rows()[0][0]), [r[0] for r in oracle.rows()], se)
            return
        raw: dict[float, list[float]] = {}
        for x, y in oracle.rows():
            raw.setdefault(float(x), []).append(float(y))
        for x, y in answer.rows():
            if float(x) in raw:
                _add_value(result, float(y), raw[float(x)], se)
        return
    for column, value, truth in zip(names, answer.rows()[0], oracle.rows()[0]):
        band = approx.error_estimate(column)
        _add_value(result, float(value), [float(truth)], band.standard_error if band else None)


def _add_value(result: RunResult, value: float, truths: list[float], se: float | None) -> None:
    if not truths:
        return
    reference = float(np.mean(truths))
    result.rel_errors.append(abs(value - reference) / max(abs(reference), 1e-12))
    if se is not None and math.isfinite(se):
        arr = np.asarray(truths, dtype=float)
        inside = np.abs(arr - value) <= 1.96 * se
        result.coverage.append(float(inside.mean()))


# -- exact_analytics --------------------------------------------------------------------------


class ExactAnalytics(Workload):
    """Dashboard SQL that must be exact, with a working set that fits the caches."""

    name = "exact_analytics"
    fingerprint_ops = 40

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        n, d = self.sizes["fact"], self.sizes["dim"]
        fact = {
            "id": np.arange(n),
            "k": rng.integers(0, d, n),
            "g": rng.integers(0, 10, n),
            "x": rng.uniform(0.0, 1000.0, n),
            "t": rng.uniform(0.0, 1e6, n),
        }
        fact["y"] = rng.uniform(0.1, 0.5) * fact["x"] + rng.normal(0.0, 5.0, n)
        dim = {"k": np.arange(d), "region": rng.integers(0, 10, d), "w": rng.uniform(0, 1, d)}
        self.fact, self.dim = fact, dim
        self.contract = _contract("exact")
        self.queries = self._queries(np.random.default_rng([self.seed, 4]))

    def build(self) -> None:
        from repro import LawsDatabase

        db = LawsDatabase(verify_seed=self.seed)
        db.register_table(_numpy_table("fact", self.fact))
        db.register_table(_numpy_table("dim", self.dim))
        db.partition_table("fact", 8, by="t")
        self.db = db
        for _, sql, _ in self.queries:  # warm-up: statistics, parse and plan caches
            db.query(sql, self.contract)

    def prepare_checks(self) -> None:
        self.oracle = {sql: fn() for _, sql, fn in self.queries}

    def _queries(self, rng: np.random.Generator) -> list[tuple[str, str, Any]]:
        f, dm = self.fact, self.dim
        x, y, g, t = f["x"], f["y"], f["g"], f["t"]

        # Literals vary with the seed but keep each text's selectivity about
        # the same (x and t are uniform), so seeds differ in data, not in
        # work; each prune window lies inside one of the 8 range shards.
        # One decimal, so the SQL text and the oracle use the same value.
        def lit(low: float, high: float) -> float:
            return round(float(rng.uniform(low, high)), 1)

        def count_sum(mask: np.ndarray) -> list[tuple]:
            return [(int(mask.sum()), float(y[mask].sum()))]

        def count_avg(mask: np.ndarray) -> list[tuple]:
            return [(int(mask.sum()), float(y[mask].mean()))]

        out: list[tuple[str, str, Any]] = []
        for c in (lit(450.0, 550.0), lit(450.0, 550.0)):
            out.append(
                ("filter", f"SELECT count(*) AS n, sum(y) AS s FROM fact WHERE x > {c:.1f}",
                 lambda c=c: count_sum(x > c))
            )
        for a in (lit(300.0, 500.0), lit(300.0, 500.0)):
            b = a + 200.0
            out.append(
                ("between",
                 f"SELECT count(*) AS n, avg(y) AS m FROM fact WHERE x BETWEEN {a:.1f} AND {b:.1f}",
                 lambda a=a, b=b: count_avg((x >= a) & (x <= b)))
            )
        picks = sorted(int(v) for v in rng.choice(10, size=3, replace=False))
        out.append(
            ("in_list",
             f"SELECT count(*) AS n, sum(y) AS s FROM fact WHERE g IN ({', '.join(map(str, picks))})",
             lambda: count_sum(np.isin(g, picks)))
        )

        def groupby() -> list[tuple]:
            rows = []
            for key in range(10):
                sel = y[g == key]
                rows.append(
                    (key, int(sel.size), float(sel.sum()), float(sel.mean()),
                     float(sel.min()), float(sel.max()), float(sel.std(ddof=1)))
                )
            return rows

        out.append(
            ("groupby",
             "SELECT g, count(*) AS n, sum(y) AS s, avg(y) AS m, min(y) AS lo, max(y) AS hi, "
             "stddev(y) AS sd FROM fact GROUP BY g ORDER BY g",
             groupby)
        )
        region = int(rng.integers(0, 10))
        out.append(
            ("join",
             f"SELECT count(*) AS n FROM fact JOIN dim ON fact.k = dim.k WHERE dim.region = {region}",
             lambda: [(int((dm["region"][f["k"]] == region).sum()),)])
        )

        def topk() -> list[tuple]:
            order = np.argsort(-y, kind="stable")[:10]
            return [(int(f["id"][i]), float(y[i])) for i in order]

        out.append(("topk", "SELECT id, y FROM fact ORDER BY y DESC LIMIT 10", topk))
        shard_width = 1e6 / 8
        for shard in rng.choice(8, size=2, replace=False):
            a = lit(shard * shard_width + 20_000.0, shard * shard_width + 60_000.0)
            b = a + 40_000.0
            out.append(
                ("prune",
                 f"SELECT count(*) AS n, avg(y) AS m FROM fact WHERE t BETWEEN {a:.1f} AND {b:.1f}",
                 lambda a=a, b=b: count_avg((t >= a) & (t <= b)))
            )
        return out

    def step(self, index: int) -> None:
        shape, sql, _ = self.queries[index % len(self.queries)]
        answer = self.run_query(shape, sql, self.contract)
        if answer is not None and not rows_match(answer.rows(), self.oracle[sql]):
            self.fail(f"{sql}: exact answer differs from the NumPy oracle")

    def floors(self) -> dict[str, float]:
        """Per shape: median milliseconds of the NumPy computation (the floor)."""
        per_shape: dict[str, list[float]] = {}
        for shape, _, fn in self.queries:
            times = []
            for _ in range(self.sizes["floor_reps"]):
                started = perf_counter()
                fn()
                times.append((perf_counter() - started) * 1e3)
            per_shape.setdefault(shape, []).append(statistics.median(times))
        return {shape: statistics.median(v) for shape, v in per_shape.items()}

    def finish(self) -> None:
        self.floor_ms = self.floors()


# -- stream_ingest ----------------------------------------------------------------------------


class StreamIngest(Workload):
    """Writes beside reads on a durable store, then a restart."""

    name = "stream_ingest"
    fingerprint_ops = 80
    batch_rows = 512
    drift_batch = 12
    drift_group = 2
    drift_shift = 12.0
    maintain_every = 40
    checkpoint_every = 100
    #: Batches after which both queries are kept, with a pinned snapshot, for
    #: the oracle comparison after the loop.
    oracle_batches = (3, 23, 43, 63)
    #: Batches per second of ``--seconds``: about what the seed commit
    #: ingests on the reference host.  Every batch grows the table and with
    #: it the cost of the next ones, so the run ingests a fixed number of
    #: batches instead of stopping on the clock; a faster program then
    #: finishes sooner instead of facing a bigger table.
    batches_per_second = 12

    def done(self, index: int, elapsed: float, seconds: float) -> bool:
        batches = round(self.batches_per_second * seconds)
        # End halfway between two checkpoints, so the restart replays a WAL tail.
        batches += self.checkpoint_every // 2 - batches % self.checkpoint_every
        quota = max(self.fingerprint_ops, batches)
        # The clock only caps a run on a host far slower than the reference.
        return index >= quota or (index >= self.fingerprint_ops and elapsed >= 2 * seconds)

    def generate(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="stream_", dir=WORK_DIR))
        rng = np.random.default_rng([self.seed, 5])
        b = self.sizes["sensors"]
        self.icpt = rng.uniform(5.0, 40.0, 8)
        self.slope = rng.uniform(0.1, 1.0, 8)
        s = rng.integers(0, 8, b)
        x = rng.integers(0, 50, b).astype(float)
        v = self.icpt[s] + self.slope[s] * x + rng.normal(0.0, 1.0, b)
        self.base = {"s": s, "x": x, "seq": np.arange(b, dtype=float), "v": v}
        self.base_rows = b
        self.acked = 0
        self.ingest_s = 0.0
        self.seq = float(b)
        self.stream_rng = np.random.default_rng([self.seed, 6])
        self.query_rng = np.random.default_rng([self.seed, 7])
        self.contract = _contract("approx")
        self.samples: list[tuple[str, str, Any, Any]] = []
        self.maintenance: list[Any] = []
        self.checkpoint_bytes = 0
        self.wal_growth = 0
        self.recovery: list[float] = []
        self.replayed_rows = 0

    def build(self) -> None:
        from repro import LawsDatabase

        db = LawsDatabase.open(self.path, verify_seed=self.seed)
        self.db = db
        db.register_table(_numpy_table("sensors", self.base))
        if not db.fit("sensors", "v ~ linear(x)", group_by="s").accepted:
            raise RuntimeError("sensors: grouped model was not accepted")
        db.watch("sensors", "v", order_column="seq")
        db.checkpoint()
        db.query("SELECT s, avg(v) AS m FROM sensors GROUP BY s", self.contract)

    def prepare_checks(self) -> None:
        self.wal_base = self._wal_size()

    def _wal_size(self) -> int:
        wal = self.path / "wal.log"
        return wal.stat().st_size if wal.is_file() else 0

    def _files(self) -> dict[str, tuple[int, int]]:
        out = {}
        for item in self.path.rglob("*"):
            if item.is_file() and item.name != "wal.log":
                stat = item.stat()
                out[str(item)] = (stat.st_size, stat.st_mtime_ns)
        return out

    def _batch(self, index: int) -> dict[str, list]:
        rng, n = self.stream_rng, self.batch_rows
        s = rng.integers(0, 8, n)
        x = rng.integers(0, 50, n).astype(float)
        icpt = self.icpt[s] + np.where(
            (s == self.drift_group) & (index >= self.drift_batch), self.drift_shift, 0.0
        )
        v = icpt + self.slope[s] * x + rng.normal(0.0, 1.0, n)
        seq = self.seq + np.arange(n, dtype=float)
        self.seq += n
        return {"s": s.tolist(), "x": x.tolist(), "seq": seq.tolist(), "v": v.tolist()}

    def step(self, index: int) -> None:
        rows = self._batch(index)
        self.result.attempted += 1
        started = perf_counter()
        try:
            batches = self.db.ingest("sensors", rows)
        except Exception as exc:  # noqa: BLE001
            self.fail(f"ingest batch {index}: {type(exc).__name__}: {exc}")
            batches = []
        self.ingest_s += perf_counter() - started
        self.acked += sum(batch.num_rows for batch in batches)

        rng = self.query_rng
        s, x = rng.integers(0, 8), rng.integers(0, 50)
        a = rng.integers(0, 45)
        b = rng.integers(a + 2, 50)
        queries = (
            ("point", f"SELECT v FROM sensors WHERE s = {s} AND x = {x}"),
            ("grouped", f"SELECT s, avg(v) AS m FROM sensors WHERE x BETWEEN {a} AND {b} GROUP BY s"),
        )
        answers = [(shape, sql, self.run_query(shape, sql, self.contract)) for shape, sql in queries]
        if self.timed and index in self.oracle_batches:
            snapshot = self.db.snapshot()
            self.samples.extend((shape, sql, ans, snapshot) for shape, sql, ans in answers if ans)

        if (index + 1) % self.maintain_every == 0:
            self.result.attempted += 1
            try:
                self.maintenance.append(self.db.maintain())
            except Exception as exc:  # noqa: BLE001
                self.fail(f"maintain after batch {index}: {type(exc).__name__}: {exc}")
        if (index + 1) % self.checkpoint_every == 0:
            self.result.attempted += 1
            self.wal_growth += self._wal_size() - self.wal_base
            before = self._files()
            try:
                self.db.checkpoint()
            except Exception as exc:  # noqa: BLE001
                self.fail(f"checkpoint after batch {index}: {type(exc).__name__}: {exc}")
            after = self._files()
            self.checkpoint_bytes += sum(
                size for path, (size, mtime) in after.items() if before.get(path) != (size, mtime)
            )
            self.wal_base = self._wal_size()

    def refits(self) -> int:
        """Accepted refits of the sensors model (telemetry baselines excluded)."""
        return sum(
            len(action.new_model_ids)
            for report in self.maintenance
            for action in report.actions
            if action.table_name == "sensors" and action.kind in ("refit", "segmented")
        )

    def finish(self) -> None:
        from repro import LawsDatabase

        exact = _contract("exact")
        for shape, sql, answer, snapshot in self.samples:
            score_answer(self, shape, sql, answer, exact, snapshot)
        self.samples.clear()
        self.wal_growth += self._wal_size() - self.wal_base
        # Close without a checkpoint: the WAL tail must carry every
        # acknowledged row across the restart.
        self.db.close()
        self.db = None
        expected = self.base_rows + self.acked
        for _ in range(self.sizes["reopen_reps"]):
            gc.collect()
            self.result.attempted += 1
            started = perf_counter()
            reopened = LawsDatabase.open(self.path, verify_seed=self.seed)
            self.recovery.append(perf_counter() - started)
            report = reopened.last_recovery
            self.replayed_rows = report.wal_rows_replayed if report is not None else 0
            rows = reopened.table("sensors").num_rows
            reopened.close()
            del reopened
            if rows != expected:
                self.fail(f"recovery: {rows} sensors rows, {expected} acknowledged")

    def cleanup(self) -> None:
        if self.db is not None and self.db.durable is not None:
            self.db.close()
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no other run still uses it
        except OSError:
            pass


WORKLOAD_CLASSES = {cls.name: cls for cls in (ModelServing, ExactAnalytics, StreamIngest)}
WORKLOADS = tuple(WORKLOAD_CLASSES)


# -- the driver -------------------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    size: str = "full",
    spans: Any = None,
    setup_reps: int | None = None,
) -> tuple[RunResult, Workload]:
    """Set up ``name`` (several times; the last instance is measured), run
    its timed loop for ``seconds`` (never fewer than the workload's
    fingerprint prefix of operations), then check its answers."""
    probe = SpeedProbe()
    try:
        return _run_workload(name, seed, seconds, size, spans, setup_reps, probe)
    finally:
        probe.close()


def _run_workload(
    name: str,
    seed: int,
    seconds: float,
    size: str,
    spans: Any,
    setup_reps: int | None,
    probe: SpeedProbe,
) -> tuple[RunResult, Workload]:
    cls = WORKLOAD_CLASSES[name]
    reps = setup_reps if setup_reps is not None else SIZES[size]["setup_reps"]
    setup_s: list[float] = []
    setup_probe_ms: list[float] = []
    workload = cls(seed, size)
    for rep in range(max(reps, 1)):
        if rep:
            workload.cleanup()
            workload = cls(seed, size)
        try:
            workload.generate()
            gc.collect()  # a previous database is cyclic garbage; free it first
            setup_probe_ms.extend(probe.read() for _ in range(PROBES_AROUND_SETUP))
            started = perf_counter()
            workload.build()
            setup_s.append(perf_counter() - started)
            setup_probe_ms.extend(probe.read() for _ in range(PROBES_AROUND_SETUP))
        except BaseException:
            workload.cleanup()
            raise
    result = workload.result
    result.setup_s = setup_s
    result.setup_probe_ms = setup_probe_ms
    try:
        workload.prepare_checks()
        start_counters = workload.counters()
        workload.timed = True
        if spans is not None:
            spans.phase = "timed"
        waited = probe.wait_s
        started = perf_counter()
        next_probe = started
        index = 0
        while True:
            now = perf_counter()
            if now >= next_probe:
                result.probe_ms.append(probe.read())
                next_probe = now + PROBE_EVERY_S
            if workload.done(index, perf_counter() - started, seconds):
                break
            workload.step(index)
            index += 1
            result.ops = index
            if index == workload.fingerprint_ops:
                result.fingerprint = workload.snapshot_fingerprint(start_counters)
        # Waiting for probe readings is the benchmark's time, not the program's.
        result.timed_s = perf_counter() - started - (probe.wait_s - waited)
        workload.timed = False
        if spans is not None:
            spans.phase = "check"
        if not result.fingerprint:
            result.fingerprint = workload.snapshot_fingerprint(start_counters)
        end_counters = workload.counters()
        result.counters.update({k: end_counters[k] - start_counters[k] for k in end_counters})
        result.fingerprint["cost_model.source"] = workload.db.planner.cost_model.source
        result.fingerprint["bench_hotpaths.sha256"] = bench_file_hash()
        workload.finish()
    finally:
        workload.cleanup()
    summarise(workload)
    return result, workload


def summarise(workload: Workload) -> None:
    """Fill ``result.extra`` with the workload's end-to-end figures."""
    result = workload.result
    extra = result.extra
    records = result.records
    extra["fail_frac"] = (len(result.failures) / max(result.attempted, 1), "ratio", result.attempted)
    tail = TAIL_PCT[result.workload]

    def p50(values: list[float]) -> tuple[float, str, int]:
        return (statistics.median(values) if values else 0.0, "ms", len(values))

    def tail_of(values: list[float]) -> tuple[float, str, int]:
        beyond = len(values) * (100 - tail) / 100
        unit = f"ms(p{tail})" if beyond >= 10 else f"ms(p{tail},<10-beyond)"
        return (percentile(values, tail), unit, len(values))

    if result.workload == "exact_analytics":
        values = result.latencies()
        extra["exact.p50_ms"] = p50(values)
        extra["exact.tail_ms"] = tail_of(values)
        for shape in EXACT_SHAPES:
            extra[f"exact.{shape}.p50_ms"] = p50(result.latencies(shape))
    else:
        model = [r.ms for r in records if r.route not in ("exact", "exact-fallback", "error")]
        extra["model.tail_ms"] = tail_of(model)
        for shape in MODEL_SHAPES:
            values = result.latencies(shape)
            if values:
                extra[f"{shape}.p50_ms"] = p50(values)
        if result.rel_errors:
            extra["model.rel_err_mean"] = (
                float(np.mean(result.rel_errors)), "ratio", len(result.rel_errors)
            )
        if result.coverage:
            extra["model.bound_coverage"] = (
                float(np.mean(result.coverage)), "ratio", len(result.coverage)
            )
    if isinstance(workload, StreamIngest):
        extra["ingest.rows_per_s"] = (
            workload.acked / workload.ingest_s if workload.ingest_s else 0.0,
            "rows/s",
            workload.acked,
        )
        if workload.recovery:
            extra["recovery_s"] = (statistics.median(workload.recovery), "s", len(workload.recovery))


def raw_figures(result: RunResult) -> dict[str, tuple[float, str, int]]:
    """The unscaled figures behind the gated metrics, with the probe medians.

    ``shape_p50_gmean_ms`` is the geometric mean over the workload's query
    shapes of each shape's median latency: every route weighs the same, so
    a slower route moves it even when it is rare, and it does not jump
    between clusters the way a percentile of the mixed distribution does.
    """
    values = result.latencies()
    shapes = sorted({r.category for r in result.records})
    medians = [statistics.median(result.latencies(shape)) for shape in shapes]

    def median(items: list[float]) -> float:
        return statistics.median(items) if items else 0.0

    return {
        "setup_s.raw": (median(result.setup_s), "s", len(result.setup_s)),
        "qps": (len(values) / result.timed_s if result.timed_s else 0.0, "1/s", len(values)),
        "shape_p50_gmean_ms": (
            float(np.exp(np.mean(np.log(medians)))) if medians else 0.0, "ms", len(values)
        ),
        "p50_ms": (median(values), "ms", len(values)),
        "speed_probe_ms.setup": (
            median(result.setup_probe_ms), "ms", len(result.setup_probe_ms)
        ),
        "speed_probe_ms.timed": (median(result.probe_ms), "ms", len(result.probe_ms)),
    }


def end_to_end(result: RunResult) -> dict[str, tuple[float, str, int]]:
    """The gated metrics every workload reports, as named in BENCHMARK.json.

    The timings are :func:`raw_figures` rescaled to the reference host
    speed: each is multiplied (a time) or divided (a rate) by the ratio of
    the reference probe time to the median probe reading of its phase.
    """
    raw = raw_figures(result)

    def speedup(probe: str) -> float:
        reading = raw[probe][0]
        return REF_PROBE_MS / reading if reading else 1.0

    setup, qps, gmean = raw["setup_s.raw"], raw["qps"], raw["shape_p50_gmean_ms"]
    loop = speedup("speed_probe_ms.timed")
    return {
        "setup_s": (setup[0] * speedup("speed_probe_ms.setup"), "s", setup[2]),
        "qps_at_ref_speed": (qps[0] / loop, "1/s", qps[2]),
        "shape_p50_gmean_ms_at_ref_speed": (gmean[0] * loop, "ms", gmean[2]),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
