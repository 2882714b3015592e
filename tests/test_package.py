"""The package namespace: lazily resolved public names."""

from __future__ import annotations

import importlib

import pytest

import genbound
import genbound.bounds_catalog
import genbound.privacy_mechanisms
from genbound.cli import main
from genbound.covering import CoverKind


@pytest.mark.parametrize("name", genbound.__all__)
def test_public_name_is_its_defining_modules_object(name):
    obj = getattr(genbound, name)
    assert obj.__module__.startswith("genbound.")
    assert obj is getattr(importlib.import_module(obj.__module__), name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from genbound import *", namespace)
    for name in genbound.__all__:
        assert namespace[name] is getattr(genbound, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        genbound.no_such_name  # noqa: B018
    assert not hasattr(genbound, "_no_such_private")


def test_privacy_params_is_one_object_everywhere():
    assert (genbound.PrivacyParams
            is genbound.privacy_mechanisms.PrivacyParams
            is genbound.bounds_catalog.PrivacyParams)
    assert (genbound.PrivacyKind
            is genbound.privacy_mechanisms.PrivacyKind
            is genbound.bounds_catalog.PrivacyKind)


def test_cover_kind_choices_match_the_enum():
    kind = next(kwargs for flags, kwargs in main.commands["cover"].options
                if flags == ("--kind",))
    assert list(kind["choices"]) == [k.value for k in CoverKind]
