"""The three benchmark workloads: seeded inputs, one op per call, output checks.

A workload holds the inputs generated from one seed and exposes

  cycle         the op kinds of one whole cycle, in order.  A run measures
                whole cycles, so the mix of kinds is exact.
  probe_ops     how many leading ops another workload's traced run borrows
                to cover the layers this workload exercises.
  call(kind)    the timed part of one op: calls into mub6 only, or one CLI
                subprocess.  Returns what the checks need.
  check(out)    the output checks; returns the names of those that failed.

Every call into the package sits in a ``tracer.span`` named
``<module>.<function>``; with the tracer off those are plain calls.  The
benchmark passes the package only the generated inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np

import mub6
from mub6 import cli as mub6_cli
from mub6.analysis import ALL_SECTIONS

TOL = mub6.DEFAULT_TOL
STARTS = 2000
CLI_TIMEOUT_S = 60.0

FAMILIES = ("f6", "m6", "b6", "s6")
HAS_LEMMA_FORM = {"f6": True, "m6": True, "b6": False, "s6": False}
# Admissible m6 parameters, kept 1e-3 away from the excluded a = 1 end.
M6_ARCS = ((np.pi / 2 + 1e-3, np.pi), (1.5 * np.pi + 1e-3, 2 * np.pi - 1e-3))


def draw_m6_t(rng) -> float:
    lo, hi = M6_ARCS[int(rng.integers(2))]
    return float(rng.uniform(lo, hi))


def construct(fam, rng, tracer):
    """A seeded member of one family and the ``families show`` arguments
    that rebuild it."""
    if fam == "f6":
        x1, x2 = (float(x) for x in rng.uniform(0.0, 2 * np.pi, 2))
        with tracer.span("families.fourier_f6"):
            H = mub6.fourier_f6(x1, x2)
        return H, ["--family", "f6", "--x1", repr(x1), "--x2", repr(x2)]
    if fam == "m6":
        t = draw_m6_t(rng)
        with tracer.span("families.m6"):
            H = mub6.m6(t)
        return H, ["--family", "m6", "--t", repr(t)]
    if fam == "b6":
        # theta = pi is the one member with extra real structure; stay clear of it.
        lo, hi = ((mub6.B6_THETA_MIN, np.pi - 0.05), (np.pi + 0.05, mub6.B6_THETA_MAX))[int(rng.integers(2))]
        theta = float(rng.uniform(lo, hi))
        with tracer.span("families.b6"):
            H = mub6.b6(theta)
        return H, ["--family", "b6", "--theta", repr(theta)]
    with tracer.span("families.s6"):
        H = mub6.s6()
    return H, ["--family", "s6"]


def disguise(H, rng, tracer):
    """H under a seeded random equivalence move (permutations and phases)."""
    record = mub6.random_record(rng)
    with tracer.span("equivalence.apply"):
        return mub6.apply(H, record)


def max_abs(a) -> float:
    return float(np.max(np.abs(a)))


class Workload:
    probe_ops = 1

    def __init__(self, seed: int, tracer):
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self._digest = hashlib.sha256()
        self._h2_cache: dict[int, int] = {}

    def _note(self, *values) -> None:
        """Fold generated inputs into the inputs digest."""
        for v in values:
            self._digest.update(np.asarray(getattr(v, "entries", v)).tobytes())

    def inputs_digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def source_h2(self, H) -> int:
        """h2 count of an undisguised input; equivalence moves keep it."""
        key = id(H)
        if key not in self._h2_cache:
            self._h2_cache[key] = mub6.count_h2_submatrices(H)
        return self._h2_cache[key]

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace_extras(self) -> list[list[str]]:
        """Per-layer measurements outside the op loop, for traced runs only.
        Returns the failed checks of each extra call."""
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------

def check_vectors(H, vecs, bases) -> list[str]:
    """Independent checks of search output, with plain numpy inner products."""
    fails = []
    A = H.entries
    if vecs:
        V = np.stack([np.asarray(m.vector.entries) for m in vecs])
        residual = np.max(np.abs(6.0 * np.abs(V @ A.conj()) ** 2 - 1.0), axis=1)
        if not np.all(residual < TOL.residual_tol):
            fails.append("scan.vector_residual")
        if max_abs(np.abs(V) * mub6.SQRT6 - 1.0) >= TOL.eq_tol:
            fails.append("scan.vector_modulus")
        P = np.array([m.phases for m in vecs])
        D = np.max(np.abs(np.mod(P[:, None, :] - P[None, :, :] + np.pi, 2 * np.pi) - np.pi), axis=2)
        np.fill_diagonal(D, np.inf)
        if not np.all(D > TOL.cluster_tol):
            fails.append("scan.vectors_not_distinct")
        for clique in bases:
            B = V[list(clique)].T
            if max_abs(B.conj().T @ B - np.eye(6)) >= TOL.eq_tol:
                fails.append("scan.basis_not_orthonormal")
            if max_abs(np.abs(B) * mub6.SQRT6 - 1.0) >= TOL.eq_tol:
                fails.append("scan.basis_not_mu_to_identity")
            if max_abs(6.0 * np.abs(A.conj().T @ B) ** 2 - 1.0) >= TOL.residual_tol:
                fails.append("scan.basis_not_mu_to_h")
    return fails


class ScanM6(Workload):
    """One op is one scan point: ``scan_m6`` on one t at 2000 starts.

    The points are t = pi (F6-equivalent: the oracle of 48 vectors and 16
    bases, and the only point with cliques), t = 1.634 (about 114 distinct
    vectors, so dedupe and cliques see their largest inputs) and one seeded
    draw in each third of the plateau of each arc.  The plateaus leave out
    the first 0.23 rad of each arc, where the count falls from about 120 to
    48: a random draw there would swing the summed count by up to 70
    between seeds.  Traced ops run the same point as m6 -> find_mu_vectors
    -> extract_bases -> verify_triple with the Generator scan_m6 would use.
    """

    name = "scan-m6"
    PLATEAUS = ((1.80, 3.10), (4.95, 6.20))
    HIGH_T = 1.634

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        ts = [float(np.pi), self.HIGH_T]
        for lo, hi in self.PLATEAUS:
            edges = np.linspace(lo, hi, 4)
            ts += [float(self.rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]
        seeds = [int(s) for s in self.rng.integers(0, 2**31, len(ts))]
        self.points = list(zip(ts, seeds))
        self._note(ts, seeds)
        self.cycle = [f"t={t:.4f}" for t in ts]     # one op kind per point
        # counts (vectors, bases, triples) of each point's first run, per mode
        self.counts: dict[str, dict[int, tuple]] = {"untraced": {}, "traced": {}}

    def call(self, kind):
        idx = self.cycle.index(kind)
        t, seed = self.points[idx]
        cfg = mub6.OptimConfig(starts=STARTS, seed=seed)
        out = {"idx": idx, "t": t, "traced": self.tracer.enabled, "H": None}
        if not self.tracer.enabled:
            row = mub6.scan_m6([t], cfg)[0]
            out.update(counts=(row.n_mu_vectors, row.n_bases, row.n_triples),
                       max_residual=row.max_residual, error=row.error)
            return out
        tr = self.tracer
        with tr.span("families.m6"):
            H = mub6.m6(t, cfg.tol)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        with tr.span("musearch.find_mu_vectors", starts=cfg.starts) as sp:
            vecs = mub6.find_mu_vectors(H, cfg, rng=rng)
            sp["attrs"]["distinct"] = len(vecs)
        with tr.span("musearch.extract_bases"):
            bases = mub6.extract_bases(vecs, cfg.tol)
        n_triples = 0
        for b in bases:
            with tr.span("musearch.verify_triple"):
                n_triples += mub6.verify_triple(H, vecs, b, cfg.tol)
        out.update(counts=(len(vecs), len(bases), n_triples),
                   max_residual=max((v.residual for v in vecs), default=0.0),
                   error=None, H=H, vecs=vecs, bases=bases)
        return out

    def check(self, out):
        fails = []
        n_vec, n_bases, n_triples = out["counts"]
        if out["error"] is not None:
            fails.append("scan.row_error")
        if n_triples != n_bases:
            fails.append("scan.basis_failed_verify_triple")
        if not out["max_residual"] < TOL.residual_tol:
            fails.append("scan.max_residual")
        if out["t"] == np.pi and (n_vec, n_bases) != (48, 16):
            fails.append("scan.f6_oracle_48_16")
        self.counts["traced" if out["traced"] else "untraced"].setdefault(out["idx"], out["counts"])
        if any(c.get(out["idx"], out["counts"]) != out["counts"] for c in self.counts.values()):
            fails.append("scan.counts_differ_between_runs")
        if out["H"] is not None:
            fails += check_vectors(out["H"], out["vecs"], out["bases"])
        return fails

    def point_counts(self, mode="untraced"):
        return {repr(self.points[i][0]): c for i, c in sorted(self.counts[mode].items())}

    def mu_counts(self):
        """Distinct vectors and bases summed over the points (untraced runs)."""
        counts = self.counts["untraced"].values()
        return sum(c[0] for c in counts), sum(c[1] for c in counts)


# ---------------------------------------------------------------------------

class Structure(Workload):
    """Ops rotate over analyze, lemma and refute on disguised inputs.

    analyze runs every section; lemma is to_lemma_form on families that have
    the form (f6, m6) and lack it (b6, s6), alternating; refute is
    run_counterexample(t) and third_column_witness on its s.  refute fills
    three of the five slots of a cycle so that the median op lands inside
    one kind's latency cluster (refute, about 2 ms) instead of in the gap
    between two clusters, where it would jump between seeds.  Traced analyze
    ops call analyze once per section, so each section is timed through the
    public function.
    """

    name = "structure"
    cycle = ["refute", "analyze", "refute", "lemma", "refute"]
    probe_ops = 2 * len(cycle)          # two cycles: one lemma hit, one miss
    POOL = 64
    LEMMA_ORDER = ("f6", "b6", "m6", "s6")

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.analyze_pool = [self._disguised(FAMILIES[i % 4]) for i in range(self.POOL)]
        self.lemma_pool = [self._disguised(self.LEMMA_ORDER[i % 4]) for i in range(self.POOL)]
        self.refute_ts = [draw_m6_t(self.rng) for _ in range(self.POOL)]
        self._note(self.refute_ts)
        self._count = dict.fromkeys(self.cycle, 0)

    def _disguised(self, fam):
        H, _ = construct(fam, self.rng, self.tracer)
        D = disguise(H, self.rng, self.tracer)
        self._note(D)
        return fam, H, D

    def _take(self, kind, pool):
        i = self._count[kind]
        self._count[kind] = i + 1
        return pool[i % len(pool)]

    def call(self, kind):
        tr = self.tracer
        if kind == "analyze":
            fam, H, D = self._take(kind, self.analyze_pool)
            if not tr.enabled:
                return kind, H, mub6.analyze(D)
            fields = {}
            for section in ALL_SECTIONS:
                with tr.span("analysis.analyze", section=section):
                    part = mub6.analyze(D, sections=(section,))
                fields.update((f.name, getattr(part, f.name)) for f in dataclasses.fields(part)
                              if getattr(part, f.name) is not None)
            return kind, H, mub6.AnalysisReport(**fields)
        if kind == "lemma":
            fam, H, D = self._take(kind, self.lemma_pool)
            with tr.span("equivalence.to_lemma_form") as sp:
                form = mub6.to_lemma_form(D)
                sp["attrs"]["hit"] = form is not None
            return kind, (fam, D), form
        t = self._take(kind, self.refute_ts)
        with tr.span("refutation.run_counterexample"):
            rep = mub6.run_counterexample(t)
        witness = None
        if rep.s is not None:
            with tr.span("refutation.third_column_witness"):
                witness = mub6.third_column_witness(rep.s)
        return kind, rep, witness

    def check(self, out):
        kind, a, b = out
        if kind == "analyze":
            return self._check_analyze(a, b)
        if kind == "lemma":
            return self._check_lemma(*a, b)
        return self._check_refute(a, b)

    def _check_analyze(self, H, rep):
        fails = []
        required = ("real_entry_count", "exceeds_bound", "real_3x2_raw", "real_3x2_rephased",
                    "h2_submatrix_count", "unitary_3x3", "product_triple_found")
        if any(getattr(rep, f) is None for f in required):
            fails.append("analyze.missing_section")
        if rep.h2_submatrix_count != self.source_h2(H):
            fails.append("analyze.h2_count_not_invariant")
        return fails

    def _check_lemma(self, fam, D, form):
        tr = self.tracer
        if (form is not None) != HAS_LEMMA_FORM[fam]:
            return ["lemma.existence"]
        if form is None:
            return []
        fails = []
        with tr.span("equivalence.apply"):
            replay = mub6.apply(D, form.record)
        if max_abs(replay.entries - form.matrix.entries) >= TOL.eq_tol:
            fails.append("lemma.record_does_not_replay")
        with tr.span("equivalence.dephase"):
            dephased, _ = mub6.dephase(form.matrix)
        if max_abs(dephased.entries - form.matrix.entries) >= TOL.eq_tol:
            fails.append("lemma.form_not_dephased")
        block = form.matrix.entries[:3, :2] * mub6.SQRT6
        if max_abs(block.imag) >= 10 * TOL.eq_tol:
            fails.append("lemma.block_not_real")
        if (form.y, form.x) == (1, -1) and (form.s is None or abs(abs(form.s) - 1.0) >= TOL.eq_tol):
            fails.append("lemma.tail_s")
        return fails

    def _check_refute(self, rep, witness):
        fails = []
        if rep.verdict != mub6.VERDICT_REFUTED:
            fails.append("refute.verdict")
        if witness is None:
            return fails + ["refute.no_witness"]
        v = np.asarray(witness.v.entries)
        s = witness.s
        c1 = np.ones(6) / mub6.SQRT6
        c2 = np.array([1, 1, -1, -1, s, -s], dtype=complex) / mub6.SQRT6
        if not max(abs(np.vdot(c1, v)), abs(np.vdot(c2, v))) < TOL.residual_tol:
            fails.append("refute.witness_residual")
        if max_abs(np.abs(v) * mub6.SQRT6 - 1.0) >= TOL.eq_tol:
            fails.append("refute.witness_modulus")
        return fails


# ---------------------------------------------------------------------------

SCHEMA_OF = {
    "refute": "lemma_report.schema.json",
    "analyze": "analysis_report.schema.json",
    "normalize": "lemma_form.schema.json",
    "check": "check_report.schema.json",
    "show": "matrix.schema.json",
}


class CliCold(Workload):
    """One op is one cold ``mub6`` process, cycling five subcommands.

    Inputs are disguised family members written as JSON files to a temp
    directory of the run's own; ``families show`` rebuilds the undisguised
    members.  Peak RSS is that of the CLI children, read from wait4.
    """

    name = "cli-cold"
    cycle = ["refute", "analyze", "normalize", "check", "show"]
    probe_ops = len(cycle)
    N_INPUTS = 8
    IMPORT_SAMPLES = 3

    def __init__(self, seed, tracer, root, outdir):
        super().__init__(seed, tracer)
        self.root = root
        self.schemas_dir = os.path.join(root, "schemas")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        os.makedirs(outdir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=outdir)
        self.inputs = []
        for i in range(self.N_INPUTS):
            fam = FAMILIES[i % 4]
            H, show_args = construct(fam, self.rng, tracer)
            D = disguise(H, self.rng, tracer)
            path = os.path.join(self.tmp, f"{i}-{fam}.json")
            with tracer.span("core.matrix_to_json"):
                text = mub6.matrix_to_json(D)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.inputs.append({"fam": fam, "H": H, "D": D, "path": path, "show": show_args,
                                "t": draw_m6_t(self.rng)})
            self._note(D, self.inputs[-1]["t"])
        self._count = 0
        self._validators = None
        self._peak_rss_kb = 0

    def argv(self, kind, i):
        inp = self.inputs[i % len(self.inputs)]
        return {
            "refute": ["refute", "--t", repr(inp["t"]), "--json"],
            "analyze": ["analyze", "--in", inp["path"]],
            "normalize": ["normalize", "--in", inp["path"], "--lemma-form", "--json"],
            "check": ["check", "--in", inp["path"], "--json"],
            "show": ["families", "show", *inp["show"]],
        }[kind]

    def call(self, kind):
        i = self._count // len(self.cycle)
        self._count += 1
        argv = self.argv(kind, i)
        with self.tracer.span("cli.main", cmd=kind, mode="subprocess"):
            rc, out = self._subprocess(argv)
        return kind, i, rc, out

    def _subprocess(self, argv):
        """Run one CLI process; its peak RSS comes from wait4, which reaps it."""
        proc = subprocess.Popen([sys.executable, "-m", "mub6.cli", *argv], cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self._peak_rss_kb = max(self._peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode("utf-8", errors="replace")

    def peak_rss_kb(self):
        return self._peak_rss_kb

    def _validate(self, kind, text):
        import jsonschema
        if self._validators is None:
            self._validators = {}
            for k, name in SCHEMA_OF.items():
                with open(os.path.join(self.schemas_dir, name), encoding="utf-8") as fh:
                    schema = json.load(fh)
                self._validators[k] = jsonschema.Draft202012Validator(schema)
        payload = json.loads(text)
        if not self._validators[kind].is_valid(payload):
            return None
        return payload

    def check(self, out):
        kind, i, rc, text = out
        if rc != 0:
            return [f"cli.{kind}.exit_code"]
        try:
            payload = self._validate(kind, text)
        except json.JSONDecodeError:
            return [f"cli.{kind}.not_json"]
        if payload is None:
            return [f"cli.{kind}.schema"]
        inp = self.inputs[i % len(self.inputs)]
        tr = self.tracer
        if kind == "refute":
            ok = payload["verdict"] == mub6.VERDICT_REFUTED and payload["t"] == inp["t"]
        elif kind == "analyze":
            ok = payload["h2_submatrix_count"] == self.source_h2(inp["H"])
        elif kind == "normalize":
            ok = payload["present"] == HAS_LEMMA_FORM[inp["fam"]]
        elif kind == "check":
            with tr.span("core.is_hadamard"):
                ok = payload["is_hadamard"] and mub6.is_hadamard(inp["D"])
        else:
            with tr.span("core.matrix_from_json"):
                M = mub6.matrix_from_json(text)
            with tr.span("core.matrix_to_json"):
                again = mub6.matrix_to_json(M)
            with tr.span("core.is_hadamard"):
                hadamard = mub6.is_hadamard(M)
            ok = (np.array_equal(M.entries, inp["H"].entries) and again + "\n" == text
                  and hadamard)
        return [] if ok else [f"cli.{kind}.content"]

    def trace_extras(self):
        """Time a bare ``import mub6`` in a fresh process, and each subcommand
        through a warm in-process ``main()``; both are checked like ops."""
        tr = self.tracer
        results = []
        for _ in range(self.IMPORT_SAMPLES):
            with tr.span("cli.import"):
                proc = subprocess.run([sys.executable, "-c", "import mub6"], cwd=self.root,
                                      env=self.env, timeout=CLI_TIMEOUT_S)
            results.append([] if proc.returncode == 0 else ["cli.import.exit_code"])
        for kind in self.cycle:
            buf = io.StringIO()
            with tr.span("cli.main", cmd=kind, mode="inprocess"):
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    rc = mub6_cli.main(self.argv(kind, 0))
            results.append(self.check((kind, 0, rc, buf.getvalue())))
        return results

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
