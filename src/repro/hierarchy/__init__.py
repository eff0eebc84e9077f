"""Supergraph hierarchy substrate (paper §5 + Appendix A.1, Louvain+)."""
