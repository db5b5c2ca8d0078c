import inspect
import pickle

import pytest

from povseg import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, BaseException) and cls.__module__ == errors.__name__]


def instances(cls):
    if issubclass(cls, errors.NonFiniteError):
        return [cls("forward", "/x.povs: non-finite value at stage 'forward'"),
                cls("update")]
    return [cls("/x.povs: truncated payload"), cls()]


def test_every_error_class_is_covered():
    assert {cls.__name__ for cls in CLASSES} == {
        "FormatError", "BadMagicError", "VersionMismatchError", "TruncatedPayloadError",
        "InvariantError", "NonFiniteError"}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_errors_survive_a_pickle_round_trip(cls):
    """Workers send their errors back pickled: each must arrive as it was raised."""
    for exc in instances(cls):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert getattr(back, "stage", None) == getattr(exc, "stage", None)
        assert str(back) == str(exc)
