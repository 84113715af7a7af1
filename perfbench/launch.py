"""Run the ``anderson2p`` CLI once in this process and report its timing.

Usage: ``python3 launch.py TIMING_JSON TRACE_JSON|- CLI_ARG...``

The subcommand functions in ``anderson2p.cli._COMMANDS`` are wrapped so
that the moment the subcommand starts (after interpreter start, imports,
config parsing and schedule build) and the wall and process CPU time it
takes are written to TIMING_JSON, with the loaded BLAS libraries and
library versions.  With a TRACE_JSON path, the layer functions are traced
(see ``spans.py``) and the spans are written there when the run ends.
"""

from __future__ import annotations

import json
import sys
import time


def _loaded_blas() -> list[str]:
    """BLAS libraries mapped into this process, from ``/proc/self/maps``."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            name = path.rsplit("/", 1)[-1].lower()
            if path.startswith("/") and name.startswith(
                    ("libopenblas", "libscipy_openblas", "libmkl", "libblis",
                     "libblas")):
                libs.add(path)
    return sorted(libs)


def main(argv: list[str]) -> int:
    timing_path, trace_path, *cli_argv = argv
    import numpy
    import scipy

    from anderson2p import cli

    timing: dict = {}

    def timed(command):
        def run_command(*args, **kwargs):
            timing["t_command_start"] = time.monotonic()
            cpu0 = time.process_time()
            try:
                return command(*args, **kwargs)
            finally:
                timing["t_command_end"] = time.monotonic()
                timing["cpu_command_s"] = time.process_time() - cpu0

        return run_command

    for name, command in list(cli._COMMANDS.items()):
        cli._COMMANDS[name] = timed(command)

    tracer = None
    if trace_path != "-":
        import spans

        tracer = spans.Tracer()
        tracer.install()
        code = tracer.call("cli.main", cli.main, cli_argv)
        tracer.uninstall()
    else:
        code = cli.main(cli_argv)

    timing["exit_code"] = code
    timing["numpy"] = numpy.__version__
    timing["scipy"] = scipy.__version__
    timing["blas_libraries"] = _loaded_blas()
    with open(timing_path, "w") as fh:
        json.dump(timing, fh)
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans,
                       "span_cost_s": spans.span_cost_s()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
