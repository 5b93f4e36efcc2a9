"""The compiled memory walk: build cache, fallback, and its observability.

``repro.sim.memory.kernel`` compiles ``_walk.c`` on first use and falls
back to the pure-Python batch kernels when it cannot. These tests pin
the loader's contract:

* with a C compiler on ``PATH`` the kernel must actually load: a broken
  build is a failure here, never a skip, so CI cannot silently measure
  the fallback;
* a failing compiler logs one warning naming the compiler's error and
  the Python kernels produce identical payloads;
* builds are content-addressed and reused, and importing the package
  builds nothing;
* the result-cache fingerprint covers the C source, and ``repro
  profile`` reports which kernel ran.

Bit-equality of the two kernels on random operation sequences lives in
``test_hierarchy_properties.py``; whole-payload equality against the
reference engine in the engine-equivalence suites.
"""

import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.profile import profile_point
from repro.runner import RunSpec, execute_spec
from repro.runner.cache import fingerprint_sources
from repro.sim.memory import kernel

SPEC = RunSpec("gcn", mechanism="nvr", nsb=True, scale=0.05, engine="batched")

FAILING_CC = [
    sys.executable,
    "-c",
    "import sys; sys.stderr.write('_walk.c:1:1: error: synthetic failure\\n'"
    " '1 error generated.\\n'); sys.exit(1)",
]


def fresh_loader(tmp_path, monkeypatch) -> Path:
    """Put the loader in a new process's state, building into an empty
    cache; returns that cache's kernel directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(kernel, "_tried", False)
    monkeypatch.setattr(kernel, "_module", None)
    return tmp_path / "xdg" / "repro" / "kernels"


class TestKernelLoads:
    def test_kernel_loads_when_a_compiler_is_available(self):
        cc = kernel.compiler()[0]
        if shutil.which(cc) is None:
            pytest.skip(f"no C compiler ({cc}) on PATH")
        # Fails rather than skips: a compiler is present, so the
        # compiled walk must be what every run measures.
        assert kernel.load() is not None, "the compiled memory walk failed to build"
        assert kernel.kernel_name() == "c"

    def test_build_is_cached_and_reused(self, tmp_path, monkeypatch):
        if shutil.which(kernel.compiler()[0]) is None:
            pytest.skip("no C compiler on PATH")
        kernels = fresh_loader(tmp_path, monkeypatch)
        assert kernel.load() is not None
        built = sorted(p.name for p in kernels.iterdir())
        assert built == [kernel.artifact_path().name]
        # A later process finds the build and never runs the compiler.
        monkeypatch.setattr(kernel, "_tried", False)
        monkeypatch.setattr(kernel, "_module", None)
        monkeypatch.setattr(kernel, "compiler", lambda: FAILING_CC)
        assert kernel.load() is not None

    def test_artifact_name_is_content_addressed(self, monkeypatch, tmp_path):
        source = tmp_path / "_walk.c"
        source.write_text("int x;\n")
        monkeypatch.setattr(kernel, "SOURCE", source)
        first = kernel.artifact_path()
        source.write_text("int y;\n")
        assert kernel.artifact_path() != first
        assert first.parent == kernel.cache_dir()

    def test_import_builds_nothing(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "xdg"))
        src = Path(kernel.__file__).resolve().parents[3]
        env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
        subprocess.run(
            [sys.executable, "-c", "import repro.__main__, repro.sim.memory"],
            env=env,
            check=True,
        )
        assert not (tmp_path / "xdg").exists()


class TestFallback:
    def test_failing_compiler_falls_back_with_identical_payloads(
        self, tmp_path, monkeypatch, caplog
    ):
        compiled = execute_spec(SPEC)  # on this process's kernel
        kernels = fresh_loader(tmp_path, monkeypatch)
        monkeypatch.setattr(kernel, "compiler", lambda: FAILING_CC)
        with caplog.at_level(logging.WARNING, logger=kernel.__name__):
            assert kernel.load() is None
            assert kernel.kernel_name() == "python"
            fallback = execute_spec(SPEC)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "error: synthetic failure" in warnings[0].getMessage()
        assert "1 error generated" not in warnings[0].getMessage()
        assert fallback == compiled
        # Nothing half-built is left behind.
        assert not list(kernels.glob("*.tmp"))

    def test_missing_compiler_falls_back(self, tmp_path, monkeypatch, caplog):
        fresh_loader(tmp_path, monkeypatch)
        monkeypatch.setattr(kernel, "compiler", lambda: ["no-such-cc-for-repro"])
        with caplog.at_level(logging.WARNING, logger=kernel.__name__):
            assert kernel.load() is None
        assert "no-such-cc-for-repro" in caplog.text


class TestObservability:
    def test_fingerprint_covers_the_kernel_source(self):
        assert kernel.SOURCE.resolve() in fingerprint_sources()

    def test_profile_record_names_the_kernel(self, monkeypatch):
        record = profile_point("st", mechanism="inorder", scale=0.02, repeat=1)
        assert record.kernel == kernel.kernel_name()
        assert record.to_dict()["kernel"] == record.kernel
        monkeypatch.setattr(kernel, "load", lambda: None)
        record = profile_point("st", mechanism="inorder", scale=0.02, repeat=1)
        assert record.kernel == "python"

    def test_profile_cli_shows_the_kernel(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "profile.json"
        argv = ["profile", "--workloads", "st", "--mechanisms", "inorder"]
        argv += ["--scale", "0.02", "--repeat", "1", "--json", str(out)]
        assert main(argv) == 0
        header = next(
            line for line in capsys.readouterr().out.splitlines() if "engine" in line
        )
        assert "kernel" in header
        records = json.loads(out.read_text())["records"]
        assert {r["kernel"] for r in records} == {kernel.kernel_name()}
