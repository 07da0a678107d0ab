"""Time one user process's set-up: import the library and build root systems.

    python3 bench/setup_probe.py A8 E8

Prints one JSON object: the seconds from just before `import companion_bases`
to the last `build_root_system` call, the file the package came from, and the
median of seven reference times taken right after (see reference.py).
"""

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import companion_bases  # noqa: E402
from companion_bases.root_system import DynkinType, build_root_system  # noqa: E402

for label in sys.argv[1:]:
    build_root_system(DynkinType.parse(label))
elapsed = time.perf_counter() - start

from reference import reference_s  # noqa: E402

reference = statistics.median(reference_s() for _ in range(7))
print(
    json.dumps(
        {"seconds": elapsed, "module": companion_bases.__file__, "reference_s": reference}
    )
)
