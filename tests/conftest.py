import pytest

from indefsum.catalog import builtin


@pytest.fixture(scope="session")
def ln_entry():
    return builtin("ln")


@pytest.fixture(scope="session")
def psi2_entry():
    return builtin("psi2g")


@pytest.fixture(scope="session")
def xlnx_entry():
    return builtin("xlnx")


@pytest.fixture(scope="session")
def recip_entry():
    return builtin("recip")


@pytest.fixture(scope="session")
def all_entries(ln_entry, psi2_entry, xlnx_entry, recip_entry):
    return (ln_entry, psi2_entry, xlnx_entry, recip_entry)
