"""Simulated gossip network: topology, latency model, message envelopes."""
