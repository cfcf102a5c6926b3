"""Setup shim: enables legacy editable installs in offline environments
(no `wheel` package available for PEP 517 builds)."""
from setuptools import find_packages, setup

setup(
    name="repro-rage",
    version="1.0.0",
    description="Reproduction of RAGE: Retrieval-Augmented LLM Explanations (ICDE 2024)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # _moved_rows in retrieval/sqlindex.py passes dtype= to np.concatenate (1.20+).
    install_requires=["numpy>=1.20"],
    entry_points={"console_scripts": ["rage=repro.app.cli:main"]},
)
