"""Graph substrate: synthetic datasets, CSR kernels, Spark graph ops."""
