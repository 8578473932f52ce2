"""Layered end-to-end benchmark of the STFW reproduction (see README.md)."""
