"""Packaging for repro-vliw.

Kept as a plain ``setup.py`` (no build-isolation requirements) so that
``pip install -e .`` works in minimal environments whose setuptools
cannot do PEP-660 editable installs.
"""

import pathlib

from setuptools import find_packages, setup


def _readme() -> str:
    path = pathlib.Path(__file__).parent / "README.md"
    try:
        return path.read_text()
    except OSError:  # pragma: no cover - sdist without README
        return ""


setup(
    name="repro-vliw",
    version="1.0.0",
    description=("Reproduction of 'Partitioned Schedules for Clustered "
                 "VLIW Architectures' (Fernandes, Llosa & Topham, "
                 "IPPS/SPDP 1998): software pipelining for queue "
                 "register files, with a parallel cached sweep runner"),
    long_description=_readme(),
    long_description_content_type="text/markdown",
    author="repro-vliw contributors",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-vliw=repro.cli:main",
            "repro-lint=repro.analysis.lint.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Typing :: Typed",
        "Topic :: Software Development :: Compilers",
    ],
)
