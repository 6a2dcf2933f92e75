"""Legacy setup shim.

Without the ``wheel`` package, ``pip install -e .`` stops at
``bdist_wheel``; ``python setup.py develop`` still installs the package
in editable mode through this file.  All metadata lives in
``pyproject.toml``.
"""

from setuptools import setup

setup()
