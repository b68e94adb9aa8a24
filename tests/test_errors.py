"""Tests for the exception hierarchy."""

import pytest

import repro.errors as errors


ALL_ERRORS = [
    errors.InvalidItemError,
    errors.InvalidRuleError,
    errors.InvalidThresholdError,
    errors.EmptyDatabaseError,
    errors.BudgetExhaustedError,
    errors.NoQuestionAvailableError,
    errors.CrowdExhaustedError,
    errors.ConfigurationError,
    errors.EstimationError,
]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)
    assert issubclass(exc, Exception)


def test_catching_base_catches_all(tiny_db):
    """One except clause suffices for library failures."""
    from repro.classic import frequent_itemsets
    from repro.core import TransactionDB

    with pytest.raises(errors.ReproError):
        frequent_itemsets(TransactionDB([]), 0.5)


def test_every_error_documented():
    for exc in ALL_ERRORS + [errors.ReproError]:
        assert exc.__doc__, exc.__name__


def test_corrupt_store_error_is_both_hierarchies():
    from repro.io import PersistenceError
    from repro.storage import CorruptStoreError, StorageError

    assert issubclass(CorruptStoreError, StorageError)
    assert issubclass(CorruptStoreError, PersistenceError)
