from setuptools import Extension, setup

# optional: without a C compiler the package runs on the pure-Python twin,
# which superpatterns.kernels selects when the extension does not import.
setup(
    ext_modules=[
        Extension("superpatterns._kernels", ["src/superpatterns/_kernels.c"], optional=True)
    ]
)
