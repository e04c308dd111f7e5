"""``repro.verify``: static analysis over synthesis plans and hash IR.

The synthesis pipeline makes semantic promises — most prominently the
``bijective`` flag on Pext plans (paper, Section 3.2.3) — that until
this package were backed only by construction.  ``repro.verify`` checks
them after the fact, on every plan, without running a single key
through the hash:

- :mod:`repro.verify.absint` — the known-bits domain (bits fixed by
  the key format) and bit-provenance domain (which key bits influence
  each hash bit); :func:`analyze_ir` is the bit projection of the one
  abstract interpreter, the reduced-product pass of
  :mod:`repro.verify.dataflow`, which dispatches each opcode through
  one table of (bit transfer, interval transfer);
- :mod:`repro.verify.bijectivity` — a prover that certifies or refutes
  injectivity on conforming keys from the provenance facts, peeling the
  invertible finalizer when ``final_mix`` is on;
- :mod:`repro.verify.bit_report` — the public live/dead classification
  of every variable key bit (:func:`bit_report`), shared by the prover,
  the dead-input-bits lint, and the perfect-hash tier's seed analysis;
- :mod:`repro.verify.tv` — translation validation of
  :func:`repro.codegen.ir.optimize`, Alive2-style;
- :mod:`repro.verify.lints` — a registry of plan/IR lint rules with
  severities and JSON findings, feeding ``sepe lint`` and the CI gate;
- :mod:`repro.verify.verifier` — the façade: one
  :func:`verify_plan` call running everything, wired into
  ``synthesize(..., verify=...)`` and ``sepe verify``.

Everything here is read-only over plans and IR and imports nothing from
:mod:`repro.core.synthesis`, so the pipeline can call into the verifier
without an import cycle.
"""

from repro.verify.absint import (
    TAIL,
    AbstractResult,
    AbstractValue,
    analyze_ir,
)
from repro.verify.bijectivity import (
    BijectivityResult,
    prove_bijectivity,
)
from repro.verify.bit_report import (
    BitReport,
    bit_report,
    variable_key_bits,
)
from repro.verify.lints import (
    Finding,
    LintReport,
    Severity,
    lint_rule,
    registered_rules,
    run_lints,
)
from repro.verify.tv import translation_validate
from repro.verify.verifier import (
    VerificationReport,
    verify_plan,
    verify_synthesized,
)

__all__ = [
    "TAIL",
    "AbstractResult",
    "AbstractValue",
    "analyze_ir",
    "BijectivityResult",
    "prove_bijectivity",
    "BitReport",
    "bit_report",
    "variable_key_bits",
    "Finding",
    "LintReport",
    "Severity",
    "lint_rule",
    "registered_rules",
    "run_lints",
    "translation_validate",
    "VerificationReport",
    "verify_plan",
    "verify_synthesized",
]
