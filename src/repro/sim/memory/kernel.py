"""Build, cache and load the compiled memory-hierarchy walk (``_walk.c``).

:class:`~repro.sim.memory.hierarchy.MemorySystem` and
:class:`~repro.prefetch.base.PrefetchPort` run the bodies of
``demand_lines``, ``prefetch_lines`` and ``prefetch_many`` in C when the
kernel is available, and their pure-Python batch kernels otherwise. Both
produce identical results; the C walk only removes interpreter overhead.

Nothing happens at import. The first :func:`load` (made by the first
``MemorySystem`` construction) compiles ``_walk.c`` with the compiler,
include directory and extension suffix of the running interpreter
(``sysconfig``), unless an earlier process already did. Builds live in a
content-addressed per-user cache, ``$XDG_CACHE_HOME/repro/kernels/``
(``~/.cache/repro/kernels/`` when the variable is unset), named by the
sha256 of the C source, ``EXT_SUFFIX`` and the compiler flags; a build is
written under a temporary name and moved into place with ``os.replace``,
so concurrent worker processes can race on it safely. Any build or load
failure logs one warning, with the first line of the compiler's error,
and the process keeps the Python kernels.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import shlex
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from types import ModuleType

#: The kernel's C source, shipped as package data.
SOURCE = Path(__file__).with_name("_walk.c")

#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT = 300

_MODULE_NAME = "repro.sim.memory._walk"
_log = logging.getLogger(__name__)
_lock = threading.Lock()
# Per-process load state: whether load() has run, and what it found.
_tried = False
_module: ModuleType | None = None


class KernelBuildError(RuntimeError):
    """The compiler rejected ``_walk.c`` or could not run."""


def compiler() -> list[str]:
    """The interpreter's C compiler command (``sysconfig`` ``CC``)."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def build_flags() -> list[str]:
    """Compile-and-link flags for one shared extension module."""
    ccshared = shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    # LDSHARED is "<compiler> <link flags>"; the flags make the output a
    # loadable extension on this platform (-shared, -bundle, ...).
    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    return [*ccshared, "-O2", "-DNDEBUG", *ldshared[1:]]


def cache_dir() -> Path:
    """Per-user build cache directory."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return Path(base) / "repro" / "kernels"


def artifact_path() -> Path:
    """Where the build of the current source and flags lives."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(b"\0" + suffix.encode() + b"\0")
    digest.update("\0".join(build_flags()).encode())
    return cache_dir() / f"_walk-{digest.hexdigest()[:16]}{suffix}"


def _first_error_line(text: str) -> str:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    for line in lines:
        if "error" in line.lower():
            return line
    return lines[0] if lines else "no compiler output"


def _build(target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    include = sysconfig.get_paths()["include"]
    command = [*compiler(), *build_flags(), "-I", include, str(SOURCE), "-o", tmp]
    try:
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, timeout=BUILD_TIMEOUT
            )
        except OSError as exc:
            raise KernelBuildError(f"{command[0]}: {exc.strerror or exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise KernelBuildError(f"{command[0]} timed out") from exc
        if proc.returncode != 0:
            raise KernelBuildError(_first_error_line(proc.stderr + proc.stdout))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _import(path: Path) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, str(path))
    spec = importlib.util.spec_from_file_location(_MODULE_NAME, path, loader=loader)
    if spec is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def load() -> ModuleType | None:
    """The compiled walk module, or None when it cannot be built or loaded.

    Memoised per process: the first call builds (or finds) and imports
    the kernel, every later call returns the same answer.
    """
    global _module, _tried
    with _lock:
        if not _tried:
            _tried = True
            try:
                path = artifact_path()
                if not path.exists():
                    _build(path)
                _module = _import(path)
            except (KernelBuildError, OSError, ImportError) as exc:
                _log.warning(
                    "compiled memory walk unavailable, using the Python "
                    "kernels: %s",
                    exc,
                )
        return _module


def kernel_name() -> str:
    """``"c"`` when memory systems built now run the compiled walk, else
    ``"python"``."""
    return "c" if load() is not None else "python"
