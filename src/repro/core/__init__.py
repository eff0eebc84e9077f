"""The paper's primary contribution: PDist (Def. 3.1, Eq. 2) and the
Tau-Push estimation algorithm (Algorithms 1-3) with its ablations."""
