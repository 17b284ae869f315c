"""Root-based distinguishing attacks and parameter auditing for PLWE instances."""

__version__ = "0.1.0"
