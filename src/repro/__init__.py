"""SEPE reproduction: automatic synthesis of specialized hash functions.

A from-scratch Python implementation of the system described in
"Automatic Synthesis of Specialized Hash Functions" (CGO 2025): infer a
key format from examples or a regex, then generate hash functions
specialized to that format (the Naive / OffXor / Aes / Pext families),
along with every substrate the paper's evaluation needs — baseline
hashes, STL-style containers, workload generation and the benchmark
harness for all tables and figures.

Quickstart::

    from repro import synthesize, HashFamily

    ssn_hash = synthesize(r"\\d{3}-\\d{2}-\\d{4}", HashFamily.PEXT)
    ssn_hash(b"123-45-6789")          # 64-bit hash, bijective for SSNs
    print(ssn_hash.cpp_source("x86"))  # the C++ the paper's tool emits

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core import (
    HashFamily,
    KeyPattern,
    PatternAccumulator,
    SynthesizedHash,
    ValidationReport,
    infer_pattern,
    pattern_from_regex,
    render_regex,
    synthesize,
    synthesize_all_families,
    synthesize_from_keys,
    validate,
)
from repro.errors import (
    EmptyKeySetError,
    KeyFormatError,
    PerfectSearchError,
    RegexSyntaxError,
    SepeError,
    SynthesisError,
    UnsupportedPatternError,
    VerificationError,
)
from repro.perfect import (
    PerfectCertificate,
    PerfectHash,
    synthesize_perfect,
)

__version__ = "1.0.0"

__all__ = [
    "EmptyKeySetError",
    "HashFamily",
    "KeyFormatError",
    "KeyPattern",
    "PatternAccumulator",
    "PerfectCertificate",
    "PerfectHash",
    "PerfectSearchError",
    "RegexSyntaxError",
    "SepeError",
    "SynthesisError",
    "SynthesizedHash",
    "UnsupportedPatternError",
    "ValidationReport",
    "VerificationError",
    "infer_pattern",
    "pattern_from_regex",
    "render_regex",
    "synthesize",
    "synthesize_all_families",
    "synthesize_from_keys",
    "synthesize_perfect",
    "validate",
]
