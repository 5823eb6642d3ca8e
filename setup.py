"""Packaging for the EASE reproduction (``src/`` layout, no extras).

``pip install -e .`` installs the ``repro`` package and the ``repro``
console command; ``PYTHONPATH=src`` works without installing.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # int.bit_count() (repro.partitioning.kernels) is new in Python 3.10.
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
