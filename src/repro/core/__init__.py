"""SEPE's core: format inference and hash-function synthesis.

This package implements the paper's primary contribution:

- :mod:`repro.core.quads` — the quad-semilattice of Definition 3.2 and its
  join operator.
- :mod:`repro.core.pattern` — :class:`KeyPattern`, the canonical description
  of a key format as a sequence of quads (bit pairs that are either constant
  or ⊤).
- :mod:`repro.core.inference` — pattern inference from example keys
  (Section 3.1, the ``keybuilder`` tool).
- :mod:`repro.core.regex_parser` / :mod:`repro.core.regex_expand` — the
  regular-expression subset SEPE accepts and its expansion into patterns.
- :mod:`repro.core.regex_render` — rendering a pattern back into a regular
  expression (what ``keybuilder`` prints).
- :mod:`repro.core.analysis` — constant-subsequence detection, skip tables
  (Section 3.2.1) and load placement for fixed-length keys (Section 3.2.2).
- :mod:`repro.core.masks` — ``pext`` mask and shift computation
  (Section 3.2.3).
- :mod:`repro.core.synthesis` — the top-level ``synthesize`` entry point
  producing the **Naive**, **OffXor**, **Aes** and **Pext** families.
"""

from repro.core.fast_infer import PatternAccumulator, join_keys_fast
from repro.core.inference import coverage_report, infer_pattern
from repro.core.pattern import TOP, KeyPattern
from repro.core.quads import join, join_many, key_to_quads
from repro.core.regex_expand import pattern_from_regex
from repro.core.regex_render import render_regex
from repro.core.synthesis import (
    HashFamily,
    SynthesizedHash,
    synthesize,
    synthesize_all_families,
    synthesize_from_keys,
)
from repro.core.dispatch import FormatDispatcher, build_dispatcher
from repro.core.explain import explain, explain_format
from repro.core.inverse import invert_hash, invertible, recover_keys
from repro.core.validate import ValidationReport, validate

__all__ = [
    "TOP",
    "FormatDispatcher",
    "HashFamily",
    "KeyPattern",
    "PatternAccumulator",
    "SynthesizedHash",
    "ValidationReport",
    "build_dispatcher",
    "coverage_report",
    "explain",
    "explain_format",
    "infer_pattern",
    "join_keys_fast",
    "invert_hash",
    "invertible",
    "join",
    "join_many",
    "key_to_quads",
    "pattern_from_regex",
    "recover_keys",
    "render_regex",
    "synthesize",
    "synthesize_all_families",
    "synthesize_from_keys",
    "validate",
]
