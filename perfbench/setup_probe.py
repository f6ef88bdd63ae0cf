"""Set-up time of one fresh interpreter: import prose_clinic.cli, then load
the workload's config and lexicon, up to the point the first document could
be read. Prints the seconds taken.

    python3 perfbench/setup_probe.py SRC CONFIG LEXICON
"""

import sys
from time import perf_counter

started = perf_counter()
sys.path.insert(0, sys.argv[1])
import prose_clinic.cli  # noqa: E402,F401  (the import is what is timed)
from prose_clinic.config import load_config  # noqa: E402
from prose_clinic.lexicon import default_lexicon, load_lexicon_extensions  # noqa: E402

load_config(sys.argv[2])
load_lexicon_extensions(sys.argv[3], default_lexicon())
print(perf_counter() - started)
