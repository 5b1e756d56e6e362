"""What the package and its modules export, what README's API example imports
and whether it runs, and the code that README and the docstrings name."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eprbsim
from eprbsim import bell, bounds, cli, coincidence, model, reproduce, runner

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(__file__).resolve().parents[1] / "src")
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
MODULES = {m.__name__.rpartition(".")[2]: m
           for m in (model, coincidence, runner, bounds, bell, cli, reproduce)}
# a backticked module.name; ``model.py`` and the like are file names
REFERENCE = re.compile(r"`(%s)\.(\w+)" % "|".join(MODULES))


def readme_python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def readme_api_imports() -> set[str]:
    """Names that README's fenced Python blocks import from ``eprbsim``."""
    names = set()
    for block in readme_python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "eprbsim":
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", [eprbsim, model, coincidence, runner, bounds, bell],
                         ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), name


def test_readme_api_block_uses_only_exported_names():
    names = readme_api_imports()
    assert names, "README has no Python block importing from eprbsim"
    assert names <= set(eprbsim.__all__), sorted(names - set(eprbsim.__all__))


def test_readme_api_block_runs():
    """Each fenced Python block of README runs to exit 0 against ``src``."""
    blocks = readme_python_blocks()
    assert blocks, "README has no Python block"
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                              timeout=300, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr


def test_code_references_in_the_docs_resolve():
    """Every backticked ``module.name`` in README and in the package's
    docstrings and comments names an attribute of that module."""
    texts = [README, *sorted(Path(eprbsim.__file__).parent.glob("*.py"))]
    missing = [f"{path.name}: {module}.{name}"
               for path in texts
               for module, name in REFERENCE.findall(path.read_text())
               if name != "py" and not hasattr(MODULES[module], name)]
    assert not missing, missing


def test_benchmark_probe_builds_its_params():
    """The benchmark's traced mode (``perfbench/run.py --trace 1``) imports
    ``traced`` and builds ``traced._params(run)`` for each run of its fixed
    probe, whose chunks it cuts with ``coincidence_mask``; a change to the
    package that breaks either fails here."""
    code = (
        "import numpy as np, traced\n"
        "from eprbsim.coincidence import coincidence_mask\n"
        "for run in traced.PROBE:\n"
        "    params = traced._params(run)\n"
        "    assert coincidence_mask(np.zeros(2), np.array([0.0, 2.0]), params).tolist() == [\n"
        "        True, False], run\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              [SRC, PERFBENCH])))
    assert proc.returncode == 0, proc.stderr


def test_benchmark_traced_chunk_counts_as_the_runner():
    """The traced replay (``perfbench/traced.py``'s ``traced_chunk``) counts
    a chunk as ``coincidence.chunk_counts`` does, on a same-bin chunk with a
    cut and on a continuous W = 1 chunk, each of 2^15 events, so a change to
    the chunk pipeline that breaks ``--trace 1`` fails here."""
    code = (
        "import traced\n"
        "from eprbsim.coincidence import chunk_counts\n"
        "from eprbsim.model import CoincidenceMode, ModelParams, UnitVector3\n"
        "a1, a2 = UnitVector3.from_angle_deg(0.0), UnitVector3.from_angle_deg(45.0)\n"
        "for params in (ModelParams(tau=2.5e-4), ModelParams(\n"
        "        window=1.0, coincidence_mode=CoincidenceMode.CONTINUOUS)):\n"
        "    task = (1, 3, 1 << 15, 1 << 15, a1, a2, params)\n"
        "    counts = chunk_counts(task)\n"
        "    assert traced.traced_chunk(task)['counts'] == counts, (params, counts)\n"
        "    assert counts[1] > 0, params\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              [SRC, PERFBENCH])))
    assert proc.returncode == 0, proc.stderr


def test_benchmark_smoke_mode_passes():
    """``perfbench/run.py --smoke`` runs one small round of every benchmark
    workload through the CLI and checks the manifest each writes; a change
    to the flags it passes or the rows it reads fails here first."""
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300,
                          cwd=Path(PERFBENCH).parent)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), proc.stdout


def test_only_the_cli_writes_to_stdout():
    """No module of the package but ``cli`` calls ``print`` or touches
    ``sys.stdout``: the library returns data, and the CLI decides every
    byte a command prints."""
    writers = set()
    for path in sorted(Path(eprbsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    or isinstance(node, ast.Attribute) and node.attr == "stdout"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"
                    or isinstance(node, ast.ImportFrom) and node.module == "sys"
                    and any(alias.name == "stdout" for alias in node.names)):
                writers.add(path.stem)
    assert writers == {"cli"}, writers


def test_only_the_orchestrators_take_both_settings():
    """Each station's step takes its own setting alone; the functions whose
    parameters include both a1 and a2 are the five that call a station step
    once per station."""
    both = set()
    for module in (model, coincidence):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                if {"a1", "a2"} <= names:
                    both.add(f"{module.__name__.rpartition('.')[2]}.{node.name}")
    assert both == {"model.generate_batch", "model._events_from_uniforms",
                    "coincidence._screen", "coincidence._outcome_counts",
                    "coincidence._block_counts"}


def test_bell_owns_the_pair_order_and_the_four_sigma_rule():
    """The CHSH pair order is written out only in ``bell``, and the only
    functions that read ``VIOLATION_SIGMAS`` are ``bell.exceeds``, the one
    4-sigma test, and ``reproduce.check_bound_compliance``, which prints it
    in its failure message."""
    pair_order, readers = set(), set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner.partition('.')[0]}.{node.name}"
        if (isinstance(node, ast.Tuple)
                and [getattr(e, "value", None) for e in node.elts] == ["ac", "ad", "bc", "bd"]):
            pair_order.add(owner.partition(".")[0])
        if ((isinstance(node, ast.Name) and node.id == "VIOLATION_SIGMAS"
                or isinstance(node, ast.Attribute) and node.attr == "VIOLATION_SIGMAS")
                and isinstance(node.ctx, ast.Load)):
            readers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(Path(eprbsim.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert pair_order == {"bell"}
    assert readers == {"bell.exceeds", "reproduce.check_bound_compliance"}


def test_the_screen_runs_the_model_delay_law_and_overlap():
    """Of ``model`` and ``coincidence``, only the one delay-law function,
    ``model._delay``, calls ``np.power``; its one caller is the tag step,
    ``model._station_tag``, which the screen's ``_station_tag_estimate``
    calls; and ``coincidence`` defines no overlap function of its own: the
    float32 screen runs the kernel's."""
    power, overlaps, calls = set(), set(), {}
    for module in (model, coincidence):
        name = module.__name__.rpartition(".")[2]
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if "overlap" in node.name and module is coincidence:
                overlaps.add(f"{name}.{node.name}")
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                if isinstance(call.func, ast.Name):
                    calls.setdefault(call.func.id, set()).add(f"{name}.{node.name}")
                if (isinstance(call.func, ast.Attribute) and call.func.attr == "power"
                        and isinstance(call.func.value, ast.Name) and call.func.value.id == "np"):
                    power.add(f"{name}.{node.name}")
    assert power == {"model._delay"}
    assert calls["_delay"] == {"model._station_tag"}
    assert "coincidence._station_tag_estimate" in calls["_station_tag"]
    assert not overlaps, overlaps


def test_one_worker_run_loads_no_process_pool():
    """``python -m eprbsim bounds --workers 1`` runs in-process and never
    imports the process pool or the multiprocessing machinery behind it."""
    code = (
        "import runpy, sys\n"
        "sys.argv = ['eprbsim', 'bounds', '--events', '1000', '--workers', '1']\n"
        "try:\n"
        "    runpy.run_module('eprbsim', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code\n"
        "loaded = [m for m in ('concurrent.futures.process', 'multiprocessing')\n"
        "          if m in sys.modules]\n"
        "print('loaded:', *loaded, file=sys.stderr)\n"
        "sys.exit(1 if loaded else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("alpha_deg")


def child_env(**preset: str) -> dict[str, str]:
    """The environment of a fresh interpreter that loads ``src``, without the
    ``OPENBLAS_NUM_THREADS`` this process may have, plus ``preset``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=SRC, **preset)


@pytest.mark.parametrize("preset, expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")],
                         ids=["unset", "preset"])
def test_import_sets_one_blas_thread_unless_set(preset, expected):
    """``import eprbsim`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads,
    and leaves a value the user has set."""
    code = "import os, eprbsim\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=child_env(**preset))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")
def test_import_leaves_one_thread():
    """The process pool is the only parallelism: after ``import eprbsim`` a
    fresh interpreter runs one thread, not numpy's OpenBLAS pool of one
    thread per core."""
    code = "import os, eprbsim\nprint(len(os.listdir('/proc/self/task')))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_blas_thread_count_never_changes_a_result(tmp_path):
    """A ``bounds`` run gives the same manifest digest with one BLAS thread
    and with two.  The grid holds the audit's largest unequal-settings dot
    product (5,280 nodes, alpha = 1e-5 degrees) and an equal-settings one of
    5,616 nodes (tau = 1e-300)."""
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "eprbsim", "bounds", "--events", "2000",
             "--alpha-grid", "0,1e-5,60", "--tau-grid", "0.1,1e-4,1e-300", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=child_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        digests.add(runner.RunManifest.from_json((out / "manifest.json").read_text()).digest())
    assert len(digests) == 1, digests
