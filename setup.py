"""Setuptools metadata.

The core package is dependency-free on purpose: every engine has a
pure-stdlib path, so the package installs in offline and minimal
environments.  The ``fast`` extra (``pip install .[fast]``) pulls in
numpy, which the packed engine's chunk kernel
(:mod:`repro.system.batchcore`) and the blocked-trace decoder use to
vectorise the hit path — without it they degrade to the bit-identical
pure-``array`` fallback (see ``docs/performance.md``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.6.0",
    description=(
        "Reproduction of a probe-filter coherence study with reference "
        "and packed simulation engines"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    extras_require={
        "fast": ["numpy"],
    },
)
