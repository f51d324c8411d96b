"""Monte Carlo simulator for two-way time-of-flight localization of
energy-harvesting nanonodes over a THz link."""

__version__ = "0.1.0"
