"""Machine-language training data (paper §III-A).

The paper statically collects ~500K test vectors by compiling the Linux
kernel, disassembling the binaries and extracting per-function machine code.
Offline we cannot compile a kernel, so :mod:`repro.dataset.codegen` is a
synthetic compiler back-end that emits function-shaped RV64 machine code with
the register discipline and idioms of real compiled code (prologues,
callee-saved handling, bounded loops, sp/s0-relative addressing, call/return
pairs, atomics, occasional code patching).  The extraction pass
(:mod:`repro.dataset.extraction`) then recovers function boundaries from the
flat binary exactly as the paper's pipeline does, and
:mod:`repro.dataset.corpus` holds the result.
"""

from repro.dataset.codegen import CodegenConfig, FunctionGenerator, generate_binary
from repro.dataset.corpus import Corpus
from repro.dataset.extraction import extract_functions

__all__ = [
    "CodegenConfig",
    "Corpus",
    "FunctionGenerator",
    "extract_functions",
    "generate_binary",
]
