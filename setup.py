"""Packaging for the ``repro`` src-layout package (``pip install -e .``)."""

from setuptools import find_packages, setup

setup(
    name="repro-mpq",
    version="1.0.0",
    description=(
        "Reproduction of Trummer & Koch (PVLDB 2016): massively parallel "
        "query optimization on shared-nothing architectures, with an "
        "optimizer-as-a-service layer (plan caching, persistent worker pools)"
    ),
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # numpy runs the vecdp array-native enumeration backend, which AUTO
    # picks for plain and multi-objective queries; 2.0 added the
    # `bitwise_count` ufunc vecdp buckets table sets by.
    install_requires=["numpy>=2"],
)
