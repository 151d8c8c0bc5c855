"""The shard-transport registry: one discovery point for every consumer.

``ShardGroup.build(transport=...)``, ``ShardedEigenPro2``, the
``observe-report`` experiment and the conformance suite's
parametrization all resolve transports through
:mod:`repro.shard.transport`'s registry — so registering a transport
class is sufficient for the whole stack (including the test matrix) to
see it, and a typo'd name fails with the registered names spelled out.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.shard import (
    ShardGroup,
    ShardedEigenPro2,
    ThreadTransport,
    available_transports,
    register_transport,
    registered_transports,
    resolve_transport,
    transport_available,
    unregister_transport,
)
from repro.shard.transport import ShardTransport


class DummyTransport(ThreadTransport):
    """A registerable transport: thread semantics under a new name."""

    name = "dummy-registry-test"


class UnavailableTransport(ThreadTransport):
    name = "unavailable-registry-test"

    @classmethod
    def is_available(cls) -> bool:
        return False


@pytest.fixture
def registered_dummy():
    register_transport(DummyTransport)
    try:
        yield DummyTransport
    finally:
        unregister_transport(DummyTransport.name)


class TestRegistration:
    def test_registered_transport_is_discoverable(self, registered_dummy):
        assert DummyTransport.name in registered_transports()
        assert DummyTransport.name in available_transports()
        assert transport_available(DummyTransport.name)
        assert resolve_transport(DummyTransport.name) is DummyTransport

    def test_registered_transport_builds_groups(self, registered_dummy):
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((20, 3))
        weights = rng.standard_normal((20, 2))
        with ShardGroup.build(
            centers, weights, g=2, transport=DummyTransport.name
        ) as group:
            assert type(group) is DummyTransport
            assert group.g == 2

    def test_registered_transport_reaches_trainer(self, registered_dummy):
        from repro.kernels import GaussianKernel

        trainer = ShardedEigenPro2(
            GaussianKernel(bandwidth=2.0),
            n_shards=2,
            transport=DummyTransport.name,
        )
        trainer.close()

    def test_registration_parameterizes_conformance_suite(
        self, registered_dummy
    ):
        """The conformance suite derives its transport list from the
        registry at import: with the dummy registered, a (re)import sees
        it — no suite edit needed for a new transport."""
        import test_shard_transport_conformance as conformance

        reloaded = importlib.reload(conformance)
        try:
            assert DummyTransport.name in reloaded.ALL_TRANSPORTS
        finally:
            unregister_transport(DummyTransport.name)
            importlib.reload(conformance)
            register_transport(DummyTransport)  # fixture unregisters

    def test_unavailable_transport_listed_but_filtered(self):
        register_transport(UnavailableTransport)
        try:
            assert UnavailableTransport.name in registered_transports()
            assert UnavailableTransport.name not in available_transports()
            assert not transport_available(UnavailableTransport.name)
        finally:
            unregister_transport(UnavailableTransport.name)

    def test_duplicate_name_needs_replace(self, registered_dummy):
        class Imposter(ThreadTransport):
            name = DummyTransport.name

        with pytest.raises(ConfigurationError, match="already registered"):
            register_transport(Imposter)
        # Same class again is an idempotent no-op...
        register_transport(DummyTransport)
        # ...and replace=True hands the name over.
        register_transport(Imposter, replace=True)
        assert resolve_transport(DummyTransport.name) is Imposter
        register_transport(DummyTransport, replace=True)

    def test_rejects_non_transport_and_abstract_names(self):
        with pytest.raises(ConfigurationError, match="subclass"):
            register_transport(object)  # type: ignore[arg-type]

        class Nameless(ThreadTransport):
            name = ShardTransport.name

        with pytest.raises(ConfigurationError, match="concrete"):
            register_transport(Nameless)


class TestResolutionErrors:
    def test_bogus_name_lists_registered(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigurationError) as err:
            ShardGroup.build(
                rng.standard_normal((8, 2)), g=2, transport="bogus"
            )
        message = str(err.value)
        assert "bogus" in message
        for name in registered_transports():
            assert name in message
        assert "register_transport" in message

    def test_trainer_rejects_bogus_name_at_construction(self):
        from repro.kernels import GaussianKernel

        with pytest.raises(ConfigurationError, match="thread"):
            ShardedEigenPro2(
                GaussianKernel(bandwidth=2.0), transport="bogus"
            )

    def test_subclass_passes_through_unregistered(self):
        class Anonymous(ThreadTransport):
            name = "never-registered"

        assert resolve_transport(Anonymous) is Anonymous

    def test_unregister_unknown_is_noop(self):
        unregister_transport("no-such-transport")
