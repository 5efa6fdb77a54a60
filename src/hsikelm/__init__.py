"""Hyperspectral image classification with fused multi-scale structure and
texture features and a swarm-tuned kernel extreme learning machine."""
