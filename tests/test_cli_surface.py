"""The CLI's declared surface, pinned against a committed snapshot.

Two things are pinned in ``tests/data/cli_surface.json``:

* the option inventory of every (sub)command: each argparse action's
  option strings, dest, default, nargs and required flag; and
* the parsed namespace of a corpus of valid command lines: every
  ``python -m repro`` line in ``.github/workflows/ci.yml``, every
  ``main([...])`` call in the test suite, and the ``repro serve``
  lines the benchmark harness, the cluster launcher and loadgen build.

A dropped flag, a changed default, or a default leaking between
sibling subcommands shows up as a diff here.  The ``handler`` key the
parser binds per command is not part of the surface.

Regenerate (only when the surface is meant to change)::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.cli import _build_parser, main

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT = Path(__file__).parent / "data" / "cli_surface.json"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: Keys the parser adds to a namespace that are not user-visible flags.
NOT_SURFACE = ("handler",)

#: Shell tokens that end a command line's argv.
_SHELL_STOPS = (">", "2>", "|", "&", "&&", ";")

#: ``main([...])`` calls in the test suite (temporary paths replaced by
#: fixed placeholders) and the ``repro serve`` lines other code builds.
STATIC_CORPUS: List[List[str]] = [
    ["allocate", "tmp/tiny.asm"],
    ["unroll", "--benchmarks", "vectoradd", "--factor", "2"],
    ["export", "tmp", "--skip-slow"],
    ["show", "vectoradd", "--no-lrf", "--orf-entries", "2"],
    ["show", "hotspot"],
    ["fig2"],
    ["all", "--scale", "0.1"],
    ["all", "--scale", "0.1", "--metrics-out", "tmp/m.json"],
    ["all", "--scale", "0.1", "--trace-out", "tmp/t.json"],
    ["list"],
    ["show", "vectoradd"],
    ["scheduler", "--benchmarks", "vectoradd", "--warps", "8"],
    ["trace", "fuzz:320", "--trace-out", "tmp/trace.json"],
    ["trace", "fuzz:abc"],
    ["explain", "vectoradd", "--json", "--reg", "R2"],
    ["explain", "vectoradd"],
    [
        "tune", "fuzz:911", "--strategy", "evolutionary", "--budget", "30",
        "--seed", "7", "--out", "tmp/BENCH_tuner.json",
    ],
    ["tune", "tmp/nope.asm"],
    ["bench", "diff", "tmp/old.json", "tmp/new.json"],
    ["bench", "diff", "tmp/old.json", "tmp/old.json", "--gate", "1"],
    # perfbench/service_wl.py's server
    [
        "serve", "--host", "127.0.0.1", "--port", "40123",
        "--jobs", "1", "--executor", "thread",
    ],
    # repro.service.cluster.launcher's shard command line
    [
        "serve", "--host", "127.0.0.1", "--port", "0", "--jobs", "2",
        "--executor", "process", "--shard-of", "1/2",
        "--cache-dir", "cache/shard-1", "--trace-jsonl", "t.shard-1.jsonl",
    ],
    # repro.service.loadgen's in-run baseline server
    ["serve", "--port", "40124", "--jobs", "2"],
]

#: Out-of-range or malformed flag values: each must be a usage error.
HOSTILE: List[List[str]] = [
    ["show", "vectoradd", "--orf-entries", "0"],
    ["show", "vectoradd", "--orf-entries", "9"],
    ["explain", "vectoradd", "--orf-entries", "0"],
    ["allocate", "kernel.asm", "--orf-entries", "9"],
    ["trace", "vectoradd", "--orf-entries", "0"],
    ["scheduler", "--benchmarks", "nosuch"],
    ["scheduler", "--benchmarks"],
    ["unroll", "--benchmarks", "nosuch"],
    ["scheduler", "--warps", "0"],
    ["timing", "--warps", "0"],
    ["unroll", "--factor", "0"],
    ["unroll", "--factor", "1"],
    ["serve", "--port", "99999"],
    ["serve", "--port", "-1"],
    ["serve", "--port", "http"],
    ["serve", "--jobs", "0"],
    ["serve", "--max-pending", "0"],
    ["serve", "--shard-of", "2/2"],
    ["serve", "--shard-of", "nonsense"],
    ["serve", "--cache-max-bytes", "0"],
    ["bench-accounting", "--repeats", "0"],
    ["cluster", "--shard-addr", "nonsense"],
    ["cluster", "--shard-addr", "127.0.0.1:99999"],
    ["cluster", "--shards", "2", "--shard-addr", "127.0.0.1:9000"],
    ["fig2", "--scale", "0"],
    ["fig2", "--scale", "-1"],
    ["fig2", "--scale", "nan"],
    ["fig2", "--jobs", "-3"],
    ["tune", "vectoradd", "--warps", "0"],
    ["loadgen", "--port", "70000"],
    ["cluster", "--replication", "0"],
    ["cluster", "--hot-threshold", "0"],
    ["cluster", "--wait-secs", "0"],
    ["loadgen", "--wait-secs", "inf"],
    ["serve", "--linger-ms", "-1"],
    ["serve", "--linger-ms", "nan"],
    ["bench", "diff", "old.json", "new.json", "--gate", "-5"],
    ["bench", "diff", "old.json", "new.json", "--gate", "inf"],
    ["explain", "vectoradd", "--pos", "-1"],
    ["tune", "vectoradd", "--budget", "0"],
    ["tune", "vectoradd", "--time-budget-s", "0"],
    ["tune", "vectoradd", "--min-repeats", "0"],
    ["tune", "vectoradd", "--max-repeats", "0"],
    ["bench-accounting", "--min-repeats", "0"],
]


def ci_command_lines() -> List[List[str]]:
    """The argv of every ``python -m repro`` line in the CI workflow.

    Continuation lines are joined and the argv is cut at the first
    redirection, pipe or background token.  Lines that use shell
    variables (argv not known statically) or ask for ``--help`` (no
    namespace) are skipped.
    """
    text = CI_WORKFLOW.read_text(encoding="utf-8").replace("\\\n", " ")
    marker = "python -m repro "
    lines = []
    for line in text.splitlines():
        if marker not in line:
            continue
        argv = []
        for token in shlex.split(line.split(marker, 1)[1]):
            if token in _SHELL_STOPS:
                break
            argv.append(token)
        if "--help" not in argv and not any("$" in t for t in argv):
            lines.append(argv)
    return lines


def _subcommands(
    parser: argparse.ArgumentParser, path: Tuple[str, ...] = ()
) -> Iterator[Tuple[Tuple[str, ...], argparse.ArgumentParser]]:
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _subcommands(child, path + (name,))


def surface(parser: argparse.ArgumentParser) -> Dict[str, Dict[str, list]]:
    """Per command: positionals in order, optionals sorted."""
    result = {}
    for path, command in _subcommands(parser):
        positionals, optionals = [], []
        for action in command._actions:
            row = [
                list(action.option_strings),
                action.dest,
                action.default,
                action.nargs,
                action.required,
            ]
            (optionals if action.option_strings else positionals).append(row)
        result[" ".join(path) or "repro"] = {
            "positionals": positionals,
            "optionals": sorted(optionals),
        }
    return _json_roundtrip(result)


def parsed(argv: List[str]) -> Dict[str, object]:
    namespace = vars(_build_parser().parse_args(argv))
    return _json_roundtrip(
        {k: v for k, v in namespace.items() if k not in NOT_SURFACE}
    )


def corpus() -> List[List[str]]:
    """The valid command lines, deduplicated (CI repeats some)."""
    hostile = {tuple(argv) for argv in HOSTILE}
    lines = STATIC_CORPUS + ci_command_lines()
    unique = dict.fromkeys(tuple(argv) for argv in lines)
    return [list(argv) for argv in unique if argv not in hostile]


def _json_roundtrip(value):
    return json.loads(json.dumps(value))


def _load_snapshot() -> Dict[str, dict]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_option_inventory_matches_snapshot():
    expected = _load_snapshot()["surface"]
    actual = surface(_build_parser())
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert actual[command] == expected[command], command


def test_ci_workflow_lines_are_found():
    lines = ci_command_lines()
    assert ["fig15"] in lines
    assert any(argv[:1] == ["cluster"] for argv in lines)
    assert any(argv[:2] == ["bench", "diff"] for argv in lines)


@pytest.mark.parametrize("argv", corpus(), ids=" ".join)
def test_corpus_parses_to_snapshot_namespace(argv):
    expected = _load_snapshot()["corpus"]
    key = " ".join(argv)
    assert key in expected, (
        f"{key!r} is not in the snapshot corpus; regenerate it if this "
        "command line is new"
    )
    assert parsed(argv) == expected[key]


@pytest.mark.parametrize("argv", HOSTILE, ids=" ".join)
def test_hostile_command_line_is_a_usage_error(argv, capsys, monkeypatch):
    from repro.service import server
    from repro.service.cluster import launcher

    def no_server(*args, **kwargs):
        raise AssertionError(f"{argv} started a server")

    monkeypatch.setattr(server, "serve_forever", no_server)
    monkeypatch.setattr(launcher, "launch_cluster", no_server)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_hostile_value_exits_2_in_a_fresh_process():
    argv = ["show", "vectoradd", "--orf-entries", "0"]
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 2
    assert "--orf-entries" in done.stderr
    assert "Traceback" not in done.stderr


def _write_snapshot() -> None:
    payload = {
        "surface": surface(_build_parser()),
        "corpus": {" ".join(argv): parsed(argv) for argv in corpus()},
    }
    SNAPSHOT.parent.mkdir(parents=True, exist_ok=True)
    SNAPSHOT.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {SNAPSHOT}")


if __name__ == "__main__":  # pragma: no cover
    _write_snapshot()
