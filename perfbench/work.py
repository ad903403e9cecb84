"""Timed pass of one workload in a fresh process.

Started by ``run.py``::

    python3 perfbench/work.py ROOT WORKDIR WORKLOAD SECONDS TRACE SEED

The process imports only the standard library, ``calib.py`` beside it
and the ``wasmsmell`` package under ROOT/src.  It reads the inputs that
``run.py`` generated in WORKDIR, warms up, runs whole rounds of the
workload's items for about SECONDS seconds, checks every output against
the planted truth and prints one JSON object as its last line of output:
the per-item wall times, the items attempted and failed, and its peak
resident memory.

Each item's program call is timed on its own; the checks and the
machine-speed chunks of ``calib.py`` run between items, outside the
timed calls, and every time is scaled to the reference speed.  With
TRACE=1 the rounds alternate between untraced and traced, and the
object also holds the per-layer metrics.  On analyze-flat each such cycle also runs an untraced serial
round (``--jobs 1``), the base of the tracing overhead and of
``analysis.speedup``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(ROOT / "src"))

from calib import SpeedMeter  # noqa: E402

import wasmsmell  # noqa: E402
from wasmsmell import cli  # noqa: E402
from wasmsmell import wasmdetect  # noqa: E402
from wasmsmell.analysis import FileResult, analyze_source, collect_source_files  # noqa: E402
from wasmsmell.cfg import build_cfg  # noqa: E402
from wasmsmell.checkers import check_structural, default_checker_ids, make_flow_checkers  # noqa: E402
from wasmsmell.cparser import ParseResult, parse_source, parse_tokens  # noqa: E402
from wasmsmell.dataset import scan_binaries, store_dedup  # noqa: E402
from wasmsmell.engine import Budget, analyze_function  # noqa: E402
from wasmsmell.lexer import lex  # noqa: E402
from wasmsmell.preprocess import preprocess_lite  # noqa: E402
from wasmsmell.relevance import extract_candidates, is_relevant  # noqa: E402
from wasmsmell.report import BudgetSummary, merge_findings, render  # noqa: E402
from wasmsmell.wasmdetect import classify_repo  # noqa: E402

if not Path(wasmsmell.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"wasmsmell imported from {wasmsmell.__file__}, not from {ROOT / 'src'}")

# The thirteen checker ids of the golden/negative fixture pairs; analyze-flat
# enables them all so that the optional-tier snippets plant findings too.
ALL_CHECKERS = (
    "access-env,pointer-subtraction,format-arg-count,format-arg-type,double-free,"
    "double-fclose,error-without-action,improper-resource-shutdown,"
    "uninitialized-variable,bad-fputs-comparison,wide-string,alloca-free,offset-free"
)

WARMUP_ITEMS = {"fuzz-parse": 50, "analyze-flat": 3, "analyze-branchy": 3, "curate": 3}

LAYERS = (
    "preprocess", "lexer", "cparser", "cfg", "checkers", "engine", "report",
    "analysis", "relevance", "wasmdetect", "dataset",
)
# (name, unit) of every per-layer metric, in output order.
PER_LAYER = [(f"{layer}.ms", "ms/item") for layer in LAYERS] + [
    ("preprocess.kib", "KiB/item"),
    ("lexer.tokens", "count/item"),
    ("lexer.diagnostics", "count/item"),
    ("cparser.nodes", "count/item"),
    ("cparser.skipped_regions", "count/item"),
    ("cfg.blocks", "count/item"),
    ("cfg.edges", "count/item"),
    ("checkers.findings", "count/item"),
    ("engine.paths", "count/item"),
    ("engine.paths_per_s", "1/s"),
    ("engine.exhausted_functions", "count/item"),
    ("engine.findings", "count/item"),
    ("report.findings", "count/item"),
    ("analysis.speedup", "ratio"),
    ("relevance.words", "count/item"),
    ("wasmdetect.files", "count/item"),
    ("dataset.stored", "count/item"),
    ("dataset.dedup_hits", "count/item"),
    ("dataset.index_kib", "KiB"),
    ("trace.overhead_pct", "%"),
]


# -- tracing --------------------------------------------------------------------


class Tracer:
    """In-memory spans: [name, start, end, parent index, item id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


class LayerCounts:
    """Work counts taken from the program's outputs, outside the spans."""

    def __init__(self):
        self.n: dict[str, float] = {}

    def add(self, key: str, value: float):
        self.n[key] = self.n.get(key, 0) + value

    def parse(self, source_len: int, tokens, lex_diags, unit):
        self.add("preprocess.kib", source_len / 1024)
        self.add("lexer.tokens", len(tokens))
        self.add("lexer.diagnostics", len(lex_diags))
        nodes = skipped = 0
        for node in unit.walk():
            nodes += 1
            skipped += node.kind == "SkippedRegion"
        self.add("cparser.nodes", nodes)
        self.add("cparser.skipped_regions", skipped)

    def cfg(self, fg):
        self.add("cfg.blocks", len(fg.blocks))
        self.add("cfg.edges", len(fg.edges))


def traced_parse(tr: Tracer, source, sink: list):
    """parse_source rebuilt from its stages, each under its own span."""
    with tr.span("preprocess"):
        pre = preprocess_lite(source)
    with tr.span("lexer"):
        tokens, lex_diags = lex(pre.text)
    with tr.span("cparser"):
        unit, parse_diags = parse_tokens(tokens)
    sink.append(("parse", len(pre.text), tokens, lex_diags, unit))
    return ParseResult(unit, pre.diagnostics + lex_diags + parse_diags, pre.includes, tokens)


def traced_analyze_source(tr: Tracer, source, rel_path, enabled, budget, sink: list) -> FileResult:
    """analyze_source rebuilt from the public stages, in the same order."""
    result = FileResult(path=rel_path)
    parsed = traced_parse(tr, source, sink)
    with tr.span("checkers"):
        structural = check_structural(parsed.unit, enabled)
    sink.append(("checkers", structural))
    result.findings.extend(structural.findings)
    result.skipped_sites = structural.skipped_sites
    for top in parsed.unit.children:
        if top.kind != "FunctionDef":
            continue
        with tr.span("cfg"):
            fg = build_cfg(top)
        with tr.span("engine"):
            findings, budget_report = analyze_function(fg, make_flow_checkers(enabled), budget)
        sink.append(("function", fg, findings, budget_report))
        result.findings.extend(findings)
        result.paths_explored += budget_report.paths_explored
        if budget_report.exhausted:
            result.exhausted_functions += 1
    for f in result.findings:
        f.file = rel_path
    return result


def count_sink(counts: LayerCounts, sink: list):
    for entry in sink:
        if entry[0] == "parse":
            counts.parse(*entry[1:])
        elif entry[0] == "checkers":
            counts.add("checkers.findings", len(entry[1].findings))
        elif entry[0] == "function":
            _, fg, findings, budget_report = entry
            counts.cfg(fg)
            counts.add("engine.paths", budget_report.paths_explored)
            counts.add("engine.exhausted_functions", int(budget_report.exhausted))
            counts.add("engine.findings", len(findings))
        elif entry[0] == "cfg":
            counts.cfg(entry[1])
    sink.clear()


# -- workloads ------------------------------------------------------------------


class Workload:
    """Items of one round; run_item is the timed call, check_item is not."""

    def __init__(self, work: Path, truth: dict):
        self.work = work
        self.inputs = work / "inputs"
        self.truth = truth
        self.tracer: Tracer | None = None
        self.counts = LayerCounts()
        self.sink: list = []
        self.tracing = False  # whether traced rounds will follow
        self.signatures: dict[int, object] = {}
        self.problems: list[str] = []

    def fail(self, message: str) -> bool:
        if len(self.problems) < 20:
            self.problems.append(message)
        return False

    def same_as_untraced(self, i: int, signature) -> bool:
        """Record the untraced result, or compare the traced one with it.

        Signatures are kept only in a traced run, so that an untraced run's
        memory is the program's alone.
        """
        if not self.tracing:
            return True
        if self.tracer is None:
            self.signatures.setdefault(i, signature)
            return True
        if self.signatures.get(i, signature) != signature:
            return self.fail(f"item {i}: traced output differs from untraced output")
        return True

    def end_round(self) -> tuple[float, bool]:
        """Timed work done once per round (seconds), and whether it checked out."""
        return 0.0, True

    def reset(self):
        pass


class FuzzParse(Workload):
    def __init__(self, work, truth):
        super().__init__(work, truth)
        self.items = [(self.inputs / rel).read_bytes() for rel in truth["items"]]

    def run_item(self, i):
        data = self.items[i]
        tr = self.tracer
        if tr is None:
            parsed = parse_source(data)
            cfgs = [build_cfg(top) for top in parsed.unit.children if top.kind == "FunctionDef"]
            return parsed, cfgs
        parsed = traced_parse(tr, data, self.sink)
        cfgs = []
        for top in parsed.unit.children:
            if top.kind == "FunctionDef":
                with tr.span("cfg"):
                    cfgs.append(build_cfg(top))
        self.sink.extend(("cfg", fg) for fg in cfgs)
        return parsed, cfgs

    def check_item(self, i, out) -> bool:
        parsed, cfgs = out
        if self.tracer is not None:
            count_sink(self.counts, self.sink)
        if parsed.unit.kind != "TranslationUnit":
            return self.fail(f"item {i}: unit is {parsed.unit.kind}")
        text = self.items[i].decode("utf-8", errors="replace")
        line, scanned = 1, 0
        for tok in parsed.tokens:
            off = tok.span.offset
            if off < scanned or text[off:off + tok.span.length] != tok.lexeme:
                return self.fail(f"item {i}: token {tok.lexeme!r} not at offset {off}")
            line += text.count("\n", scanned, off)
            col = off - text.rfind("\n", 0, off)
            scanned = off
            if (tok.span.line, tok.span.col) != (line, col):
                return self.fail(f"item {i}: token at offset {off} is at {tok.span.line}:"
                                 f"{tok.span.col}, counting newlines gives {line}:{col}")
        for fg in cfgs:
            ids = {b.id for b in fg.blocks}
            if fg.entry != 0 or any(e.src not in ids or e.dst not in ids for e in fg.edges):
                return self.fail(f"item {i}: CFG {fg.name} has a bad entry or edge")
        nodes = sum(1 for _ in parsed.unit.walk())
        return self.same_as_untraced(i, (len(parsed.tokens), len(parsed.diagnostics), nodes, len(cfgs)))


class AnalyzeFlat(Workload):
    def __init__(self, work, truth):
        super().__init__(work, truth)
        self.projects = truth["projects"]
        self.roots = [self.inputs / "flat" / p["name"] for p in self.projects]
        self.outs = [work / "reports" / f"{p['name']}.json" for p in self.projects]
        self.outs[0].parent.mkdir(parents=True, exist_ok=True)
        self.jobs = "2"
        self.enabled = ALL_CHECKERS.split(",")

    def run_item(self, i):
        tr = self.tracer
        if tr is None:
            return cli.main(["analyze", str(self.roots[i]), "--jobs", self.jobs,
                             "--checkers", ALL_CHECKERS, "--out", str(self.outs[i])])
        # cmd_analyze / analyze_project rebuilt from the public stages.
        with tr.span("analysis"):
            root = self.roots[i]
            results = []
            for path in collect_source_files(root):
                rel = path.relative_to(root).as_posix()
                results.append(traced_analyze_source(
                    tr, path.read_bytes(), rel, self.enabled, Budget(), self.sink))
            with tr.span("report"):
                report = merge_findings([r.findings for r in results], project=root.name)
                report.files_analyzed = len(results)
                report.budget = BudgetSummary(
                    paths_explored=sum(r.paths_explored for r in results),
                    functions_exhausted=sum(r.exhausted_functions for r in results),
                    skipped_sites=sum(r.skipped_sites for r in results),
                )
                self.outs[i].write_bytes(render(report, "json"))
        return 1 if report.findings else 0

    def check_item(self, i, rc) -> bool:
        planted = [tuple(x) for x in self.projects[i]["planted"]]
        data = self.outs[i].read_bytes()
        doc = json.loads(data)
        got = sorted((f["checker"], f["file"], f["line"]) for f in doc["findings"])
        if self.tracer is not None:
            self.counts.add("report.findings", len(doc["findings"]))
            count_sink(self.counts, self.sink)
        if got != planted:
            missing = sorted(set(planted) - set(got))
            extra = sorted(set(got) - set(planted))
            return self.fail(f"{self.projects[i]['name']}: missing {missing[:3]} extra {extra[:3]}")
        if doc["budget"]["functions_exhausted"] != 0:
            return self.fail(f"{self.projects[i]['name']}: a shallow function exhausted its budget")
        if rc != (1 if planted else 0):
            return self.fail(f"{self.projects[i]['name']}: exit code {rc}")
        return self.same_as_untraced(i, data)

    def expected_stats(self) -> dict:
        checkers: dict[str, dict] = {}
        n = len(self.projects)
        for p in self.projects:
            for checker in sorted({c for c, _, _ in p["planted"]}):
                row = checkers.setdefault(checker, {"occurences": 0, "repositories_affected": 0})
                row["repositories_affected"] += 1
            for c, _, _ in p["planted"]:
                checkers[c]["occurences"] += 1
        for row in checkers.values():
            row["fraction_affected"] = round(row["repositories_affected"] / n, 4)
        affected = sum(1 for p in self.projects if p["planted"])
        return {
            "schema_version": 1,
            "checkers": checkers,
            "total_projects": n,
            "projects_with_any_smell": {"count": affected, "fraction": round(affected / n, 4)},
        }

    def end_round(self):
        out = self.work / "stats.json"
        argv = ["stats", *map(str, self.outs), "--out", str(out)]
        t0 = time.perf_counter()
        if self.tracer is None:
            rc = cli.main(argv)
        else:
            with self.tracer.span("report"):
                rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
        ok = rc == 0 and json.loads(out.read_bytes()) == self.expected_stats()
        if not ok:
            self.fail("stats output differs from the counts of the planted table")
        return elapsed, ok


class AnalyzeBranchy(Workload):
    def __init__(self, work, truth):
        super().__init__(work, truth)
        self.files = truth["files"]
        self.items = [(self.inputs / f["file"]).read_bytes() for f in self.files]
        self.enabled = default_checker_ids()

    def run_item(self, i):
        rel = self.files[i]["file"]
        if self.tracer is None:
            return analyze_source(self.items[i], rel)
        return traced_analyze_source(self.tracer, self.items[i], rel, self.enabled, Budget(), self.sink)

    def check_item(self, i, result) -> bool:
        if self.tracer is not None:
            count_sink(self.counts, self.sink)
        got = {(f.checker, f.file, f.line) for f in result.findings}
        must = {tuple(x) for x in self.files[i]["must"]}
        may = must | {tuple(x) for x in self.files[i]["may"]}
        if not must <= got:
            return self.fail(f"{self.files[i]['file']}: prefix smells not reported {sorted(must - got)[:3]}")
        if not got <= may:
            return self.fail(f"{self.files[i]['file']}: findings outside the planted set {sorted(got - may)[:3]}")
        keys = sorted(f.dedup_key for f in result.findings)
        return self.same_as_untraced(i, (keys, result.paths_explored, result.exhausted_functions))


class Curate(Workload):
    def __init__(self, work, truth):
        super().__init__(work, truth)
        self.repos = truth["repos"]
        self.roots = [self.inputs / "repos" / r["id"] for r in self.repos]
        self.dest = self.inputs / "dataset"
        self.index_path = self.dest / "index.json"
        self.pristine_index = self.index_path.read_bytes()
        self.preloaded = {p.name for p in self.dest.glob("*.wasm")}
        self.entries_before = truth["stored_before"]

    @contextmanager
    def _traced_includes(self):
        """Give preprocess_lite its own span when classify_repo calls it."""
        original = wasmdetect.preprocess_lite
        tr, sink = self.tracer, self.sink

        def traced(source):
            with tr.span("preprocess"):
                out = original(source)
            sink.append(("preprocess", len(source)))
            return out

        wasmdetect.preprocess_lite = traced
        try:
            yield
        finally:
            wasmdetect.preprocess_lite = original

    def _collect(self, i):
        root = self.roots[i]
        text = (root / "README.md").read_text(encoding="utf-8", errors="replace")
        verdict = is_relevant(text)
        evidence = classify_repo(root)
        found = scan_binaries(root)
        wasm = [p for p, kind in found if kind == "wasm"]
        index = store_dedup(wasm, self.dest, self.repos[i]["id"], root=root)
        return verdict, evidence, found, index

    def run_item(self, i):
        tr = self.tracer
        if tr is None:
            return self._collect(i)
        root = self.roots[i]
        with tr.span("relevance"):
            text = (root / "README.md").read_text(encoding="utf-8", errors="replace")
            verdict = is_relevant(text)
        with tr.span("wasmdetect"), self._traced_includes():
            evidence = classify_repo(root)
        with tr.span("dataset"):
            found = scan_binaries(root)
            wasm = [p for p, kind in found if kind == "wasm"]
            index = store_dedup(wasm, self.dest, self.repos[i]["id"], root=root)
        self.sink.append(("readme", text))
        return verdict, evidence, found, index

    def check_item(self, i, out) -> bool:
        verdict, evidence, found, index = out
        repo = self.repos[i]
        name = repo["id"]
        if self.tracer is not None:
            for entry in self.sink:
                if entry[0] == "preprocess":
                    self.counts.add("preprocess.kib", entry[1] / 1024)
                elif entry[0] == "readme":
                    self.counts.add("relevance.words", len(extract_candidates(entry[1])))
            self.sink.clear()
            self.counts.add("wasmdetect.files", sum(1 for p in self.roots[i].rglob("*") if p.is_file()))
            stored = len(index.entries) - self.entries_before
            self.entries_before = len(index.entries)
            self.counts.add("dataset.stored", stored)
            self.counts.add("dataset.dedup_hits", len(repo["blobs"]) - stored)
        if verdict.relevant != repo["relevant"]:
            return self.fail(f"{name}: relevance verdict {verdict.relevant}")
        for key, hits in (("h1", evidence.h1_build_scripts), ("h2", evidence.h2_headers),
                          ("h3", evidence.h3_js_api)):
            if [[h.file, h.line] for h in hits] != repo[key]:
                return self.fail(f"{name}: {key} hits {[(h.file, h.line) for h in hits]}")
        wasm = sorted(p.relative_to(self.roots[i]).as_posix() for p, kind in found if kind == "wasm")
        if wasm != sorted(b["path"] for b in repo["blobs"]):
            return self.fail(f"{name}: scanned {wasm}")
        for b in repo["blobs"]:
            if {"repo": name, "path": b["path"]} not in index.entries.get(b["sha256"], []):
                return self.fail(f"{name}: {b['path']} missing from the index")
        if not self.tracing:
            return True
        digest = hashlib.sha256(json.dumps(index.to_dict(), sort_keys=True).encode()).hexdigest()
        return self.same_as_untraced(i, (verdict.relevant, evidence.to_dict(), digest))

    def end_round(self):
        ok = True
        blobs = sorted(self.dest.glob("*.wasm"))
        for p in blobs:
            if hashlib.sha256(p.read_bytes()).hexdigest() != p.stem:
                ok = self.fail(f"stored blob {p.name} does not hash to its name")
        doc = json.loads(self.index_path.read_bytes())
        origins = sum(len(e["origins"]) for e in doc["entries"])
        if (len(blobs), len(doc["entries"]), origins) != (
                self.truth["stored_after"], self.truth["stored_after"], self.truth["origins_after"]):
            ok = self.fail(f"{len(blobs)} blobs, {len(doc['entries'])} entries, {origins} origins "
                           f"after a round; generator made {self.truth['stored_after']} and "
                           f"{self.truth['origins_after']}")
        if (self.dest / ".lock").exists():
            ok = self.fail("dataset lock left behind")
        if self.tracer is not None:
            self.counts.n["dataset.index_kib"] = len(self.index_path.read_bytes()) / 1024
        # Collecting a repo a second time must leave the index byte-identical.
        snapshot = self.index_path.read_bytes()
        root = self.roots[0]
        again = [p for p, kind in scan_binaries(root) if kind == "wasm"]
        store_dedup(again, self.dest, self.repos[0]["id"], root=root)
        if self.index_path.read_bytes() != snapshot:
            ok = self.fail("collecting a repo twice changed index.json")
        self.reset()
        return 0.0, ok

    def reset(self):
        for p in self.dest.glob("*.wasm"):
            if p.name not in self.preloaded:
                p.unlink()
        self.index_path.write_bytes(self.pristine_index)
        self.entries_before = self.truth["stored_before"]


WORKLOADS = {
    "fuzz-parse": FuzzParse,
    "analyze-flat": AnalyzeFlat,
    "analyze-branchy": AnalyzeBranchy,
    "curate": Curate,
}


# -- passes ---------------------------------------------------------------------


class Pass:
    """Per-item wall times and outcomes of the rounds run one way.

    Times are scaled to the reference machine speed (see calib.py) by the
    chunks timed between the items of their own round.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.extra = 0.0
        self.raw_seconds = 0.0
        self.failed = 0
        self.correct = True

    @property
    def rate(self) -> float:
        return len(self.durations) / (sum(self.durations) + self.extra)

    @property
    def scale(self) -> float:
        """Scaled over unscaled timed seconds: above 1, the machine ran faster."""
        return (sum(self.durations) + self.extra) / self.raw_seconds


def run_round(wl: Workload, n_items: int, out: Pass):
    meter = SpeedMeter()
    durations = []
    for i in range(n_items):
        if wl.tracer is not None:
            wl.tracer.item = str(i)
        t0 = time.perf_counter()
        try:
            result = wl.run_item(i)
        except Exception as err:  # an item that raises counts as failed
            durations.append(time.perf_counter() - t0)
            ok = wl.fail(f"item {i}: {type(err).__name__}: {err}")
            wl.sink.clear()
        else:
            durations.append(time.perf_counter() - t0)
            try:
                ok = wl.check_item(i, result)
            except Exception as err:
                ok = wl.fail(f"item {i}: check raised {type(err).__name__}: {err}")
        out.failed += not ok
        meter.tick()
    spent, ok = wl.end_round()
    factor = meter.factor()
    out.durations.extend(d * factor for d in durations)
    out.extra += spent * factor
    out.raw_seconds += sum(durations) + spent
    out.correct = out.correct and ok


def timed_passes(wl: Workload, seconds: float, n_items: int, tracer: Tracer | None):
    """Whole rounds until the time is used; a new cycle starts only if it fits.

    With a tracer, each cycle is an untraced round followed by a traced
    one, so drift in machine speed falls on both alike.  On analyze-flat
    an untraced serial round (``--jobs 1``) comes between them: the
    traced pipeline is serial, so that round is the base of the tracing
    overhead.  Elsewhere the untraced round is serial already.
    """
    untraced, serial, traced = Pass(), Pass(), Pass()
    flat = isinstance(wl, AnalyzeFlat)
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        wl.tracer = None
        run_round(wl, n_items, untraced)
        if tracer is not None:
            if flat:
                wl.jobs = "1"
                run_round(wl, n_items, serial)
                wl.jobs = "2"
            wl.tracer = tracer
            run_round(wl, n_items, traced)
        now = time.perf_counter()
        if now - started + (now - cycle_started) > seconds:
            return untraced, (serial if flat else untraced), traced


def main():
    work = Path(sys.argv[2])
    name = sys.argv[3]
    seconds = float(sys.argv[4])
    trace = sys.argv[5] == "1"
    seed = sys.argv[6]
    truth = json.loads((work / "truth.json").read_bytes())
    wl = WORKLOADS[name](work, truth)
    n_items = len(truth.get("items") or truth.get("projects") or truth.get("files") or truth["repos"])

    for i in range(WARMUP_ITEMS[name]):
        wl.run_item(i)
    wl.reset()

    tracer = Tracer() if trace else None
    wl.tracing = trace
    untraced, serial, traced = timed_passes(wl, seconds, n_items, tracer)
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    passes = [untraced, traced] + ([serial] if serial is not untraced else [])
    out = {
        "correct": all(p.correct for p in passes),
        "attempted": sum(len(p.durations) for p in passes),
        "failed": sum(p.failed for p in passes),
        "durations": untraced.durations,
        "extra": untraced.extra,
        "scale": untraced.scale,
        "peak_kib": peak_kib,
    }
    if tracer is not None:
        n = len(traced.durations)
        self_s = {k: v * traced.scale for k, v in tracer.self_seconds().items()}
        values = {f"{layer}.ms": self_s.get(layer, 0.0) * 1000 / n for layer in LAYERS}
        for key, total in wl.counts.n.items():
            values[key] = total if key == "dataset.index_kib" else total / n
        engine_s = self_s.get("engine", 0.0)
        values["engine.paths_per_s"] = wl.counts.n.get("engine.paths", 0) / engine_s if engine_s else 0.0
        if serial is not untraced:
            # cli.main --jobs 1 time per project over cli.main --jobs 2 time per project
            values["analysis.speedup"] = ((sum(serial.durations) / len(serial.durations))
                                          / (sum(untraced.durations) / len(untraced.durations)))
        values["trace.overhead_pct"] = (serial.rate / traced.rate - 1) * 100
        out["metrics"] = {key: {"value": values.get(key, 0.0), "unit": unit} for key, unit in PER_LAYER}
        tracer.write(ROOT / ".perfbench_out" / f"trace-{name}-seed{seed}.jsonl")

    for problem in wl.problems:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
