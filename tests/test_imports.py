"""Import layering: each entry point loads only the modules its run needs.

Package ``__init__``s export their public names lazily (PEP 562), the
machine imports an armed-only subsystem in the branch that arms it, and
a result-cache hit never imports the machine simulator.  The checks that
depend on what a process has imported run in a fresh interpreter, so
other tests' imports stay out of ``sys.modules``.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return names


def _fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter with ``src`` on the path;
    its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout


class TestLazyNameTables:
    @pytest.mark.parametrize("name", _packages())
    def test_all_names_resolve_and_are_listed(self, name):
        package = importlib.import_module(name)
        assert callable(vars(package).get("__getattr__"))
        assert package.__all__
        listed = dir(package)
        for public in package.__all__:
            assert getattr(package, public) is not None, (name, public)
            assert public in listed, (name, public)

    @pytest.mark.parametrize("name", _packages())
    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(package, "no_such_name")
        assert not hasattr(package, "no_such_name")

    def test_names_keep_their_defining_objects(self):
        from repro.integrity.scrub import ScrubConfig as old_scrub
        from repro.sim.machine import Machine
        from repro.telemetry.facade import Telemetry

        assert repro.Machine is Machine
        assert repro.sim.Machine is Machine
        assert repro.systems is importlib.import_module("repro.sim.systems")
        assert repro.common.constants.PAGE_SHIFT == 12
        assert repro.integrity.ScrubConfig is old_scrub
        assert repro.telemetry.Telemetry is Telemetry


class TestFreshImports:
    def test_import_repro_loads_no_simulator(self):
        out = _fresh("""
            import json, sys
            import repro
            print(json.dumps(sorted(sys.modules)))
        """)
        loaded = json.loads(out)
        assert "repro.sim.machine" not in loaded
        assert "repro.analysis" not in loaded

    def test_cluster_model_loads_no_unrelated_subsystem(self):
        out = _fresh("""
            import json, sys
            import repro.cluster.cluster
            print(json.dumps(sorted(sys.modules)))
        """)
        loaded = json.loads(out)
        for package in ("analysis", "tune", "scenario", "trace", "sim"):
            assert not any(
                m == f"repro.{package}" or m.startswith(f"repro.{package}.")
                for m in loaded
            ), (package, loaded)

    def test_cache_hit_run_never_imports_machine(self, tmp_path):
        args = ["run", "-w", "stream-simple", "-s", "hopp",
                "--cache-dir", str(tmp_path / "cache")]
        cold = _fresh(f"""
            import repro.cli
            raise SystemExit(repro.cli.main({args!r}))
        """)
        out = _fresh(f"""
            import contextlib, io, json, sys
            import repro.cli, repro.exec.cache, repro.sim.metrics
            before = "repro.sim.machine" in sys.modules
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = repro.cli.main({args!r})
            print(json.dumps({{
                "code": code,
                "before": before,
                "after": "repro.sim.machine" in sys.modules,
                "stdout": buffer.getvalue(),
            }}))
        """)
        warm = json.loads(out)
        assert warm["code"] == 0
        assert warm["before"] is False
        assert warm["after"] is False
        assert warm["stdout"] == cold


ARMED = """
    from repro.cluster.cluster import ClusterConfig
    from repro.integrity.config import ScrubConfig
    from repro.memtier.tiers import MemtierConfig
    from repro.net.faults import FaultPlan
    from repro.telemetry.config import TelemetryConfig

    spec = RunSpec(
        workload="stream-simple", system="hopp", fraction=0.5,
        fault_plan=FaultPlan.corruption_chaos(3),
        cluster=ClusterConfig(nodes=3, replication=2),
        check_invariants=True,
        telemetry=TelemetryConfig(trace=True),
        memtier=MemtierConfig(pool_nodes=1),
        scrub=ScrubConfig(),
    )
"""

STOCK = """
    spec = RunSpec(workload="stream-simple", system="hopp", fraction=0.5)
"""


class TestReplayWindowImports:
    """Every import a run needs happens before ``make_machine`` returns,
    so none is paid inside the replay window that ``accesses_per_s``
    times."""

    @pytest.mark.parametrize("spec", [STOCK, ARMED], ids=["stock", "armed"])
    def test_no_import_between_machine_build_and_cache_store(self, tmp_path, spec):
        script = textwrap.dedent("""
            import json, sys
            from repro.exec.cache import ResultCache
            from repro.exec.pool import execute
            from repro.exec.spec import RunSpec
            from repro.sim import runner
        """) + textwrap.dedent(spec) + textwrap.dedent(f"""
            built = []
            build = runner.make_machine

            def make_machine(*args, **kwargs):
                machine = build(*args, **kwargs)
                built.append(set(sys.modules))
                return machine

            runner.make_machine = make_machine
            cache = ResultCache({str(tmp_path / "cache")!r})
            execute([spec], cache=cache)
            late = sorted(
                m for m in set(sys.modules) - built[0] if m.startswith("repro")
            )
            print(json.dumps({{"late": late, "stores": cache.stores,
                               "machines": len(built)}}))
        """)
        out = json.loads(_fresh(script))
        assert out["machines"] == 1
        assert out["stores"] == 1
        assert out["late"] == []
