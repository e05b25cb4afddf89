"""The functions the benchmark traces, and the package's exports, exist.

``perfbench`` skips a trace target whose function is gone and reports its
figures as 0, so a deletion would otherwise pass unnoticed. The known
unresolved targets are listed here; a change that deletes or renames
another traced function must update the benchmark's targets with it."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import spi

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# functions the benchmark still names but the program no longer has
UNRESOLVED = {"_infer_with_cache", "prior_ce_step", "select_for_generation",
              "select_knowledge"}


def test_every_trace_target_resolves_but_the_known_gone_ones():
    unresolved = {attr for _, module, attr, _ in workloads.TARGETS
                  if getattr(importlib.import_module(module), attr, None) is None}
    assert unresolved == UNRESOLVED


def test_every_export_resolves():
    missing = [name for name in spi.__all__ if not hasattr(spi, name)]
    assert missing == []
