"""PPR computation substrate: exact PPR, push kernels, and the paper's
competitor methods (PI, FORA, FORA+, ResAcc) plus the DPR index vector."""
