"""Fixtures shared by the witness tests."""

import dataclasses

import pytest

from repro.algorithms import all_specs
from repro.pipeline import spec_config
from repro.verify.verifier import prepare_generator, target_cfg


def _certificates(spec, config):
    generator, checker = prepare_generator(spec.target(), config)
    checker.discharge_stream(generator.stream(target_cfg(spec.target(), config)))
    return list(checker.certificates.values())


@pytest.fixture(scope="session")
def registry_certificates():
    """Every certificate of the registry, as emitted: all programs in the
    unroll regime, the correct ones in the invariant regime.  The members
    of a conjoined chunk share one object, so objects repeat."""
    certs = []
    for spec in all_specs():
        config = dataclasses.replace(spec_config(spec), witness=True)
        certs += _certificates(spec, config)
        if spec.expect_verified:
            certs += _certificates(
                spec, dataclasses.replace(config, mode="invariant", bindings={})
            )
    return certs
