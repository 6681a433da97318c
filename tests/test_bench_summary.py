"""scripts/bench_summary.py on synthetic record directories."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

UNITS = {"setup_s": "s", "round_norm": "ref", "peak_rss_mb": "MB"}

# Ten paired runs per metric and workload: (parent values, change values).
RUNS = {
    "narrow": {
        "round_norm": ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
                       [101, 100, 100, 99, 101, 99, 100, 102, 98, 101]),
        "peak_rss_mb": ([50.0] * 10, [56.0] * 10),  # +12 % against a 10 % bound
        # The parent's IQR, about 0.5 s of a 1 s median, is wider than the 25 % bound.
        "setup_s": ([0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.0],
                    [1.0, 0.9, 1.2, 0.8, 1.3, 0.7, 1.4, 0.6, 1.5, 0.55]),
    },
    "faster": {
        "round_norm": ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
                       [80, 81, 79, 80, 82, 78, 80, 81, 79, 99]),  # 9/10 wins
        "peak_rss_mb": ([50.0] * 10, [54.0] * 10),  # +8 %, within the bound
        # As wide, but every change run beats every parent run.
        "setup_s": ([0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.0], [0.1] * 10),
    },
}
VERDICTS = {
    "narrow": {"round_norm": "within", "peak_rss_mb": "worse", "setup_s": "unresolved"},
    "faster": {"round_norm": "gain", "peak_rss_mb": "within", "setup_s": "gain"},
}


def _write_records(directory: Path, side: int):
    directory.mkdir()
    for workload, metrics in RUNS.items():
        for seed in range(10):
            record = {
                "workload": workload,
                "seed": seed,
                "trace": 0,
                "failed": 0,
                "correct": True,
                "machine": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"},
                "code": {"git_sha": f"sha{side}", "src_sha256": f"src{side}", "src_lines": 3000 + side},
                "metrics": {name: {"value": runs[side][seed], "unit": UNITS[name]} for name, runs in metrics.items()},
            }
            (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_each_end_to_end_metric_gets_a_verdict(tmp_path, capsys):
    _write_records(tmp_path / "parent", 0)
    _write_records(tmp_path / "change", 1)
    benchmark = (SCRIPT.parent.parent / "BENCHMARK.json").read_text()
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    stdout = capsys.readouterr().out.splitlines()
    for workload, verdicts in VERDICTS.items():
        metrics = summary["workloads"][workload]["untraced"]["metrics"]
        assert {name: m["verdict"] for name, m in metrics.items()} == verdicts
        for name, expected in verdicts.items():
            (line,) = [line for line in stdout if line.split()[:2] == [workload, name]]
            assert line.endswith(f"  {expected}")
    assert (SCRIPT.parent.parent / "BENCHMARK.json").read_text() == benchmark
