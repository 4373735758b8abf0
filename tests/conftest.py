"""Shared test settings: hypothesis draws the same examples on every run, and every run's
log names the Python, numpy and BLAS kernel the suite ran on."""

import platform

import numpy as np
from hypothesis import settings

from retta import cli

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# memory._uniform_draws replays numpy's Generator.choice; its tests check the numpy named here.
# The pinned stream digests hold per BLAS kernel: the generator's norms round by kernel.
_BLAS = cli._blas()
VERSIONS = (f"retta tests ran on Python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {_BLAS['name']} {_BLAS['version']} kernel {_BLAS['kernel']}")


def pytest_report_header(config):
    return VERSIONS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if config.get_verbosity() < 0:  # -q drops the report header, so say it at the end
        terminalreporter.write_line(VERSIONS)
