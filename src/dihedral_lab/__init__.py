"""Numerical toolkit for curvature, dihedral-angle and cone-spectrum checks
on metric polyhedral domains.

Modules:

- ``expressions``      scalar expression parser / evaluator, exact jets at
                       one point and metric fields (on ``math``)
- ``curvature``        Christoffel symbols, Riemann/Ricci/scalar curvature,
                       mean curvature of faces, dihedral angles,
                       Gauss-Bonnet (Gauss-Legendre product rules), conformal
                       identities, domains (validation, vertices, face
                       lattice), all on floats; numpy loads only for the
                       eigenvalue in the error of a metric that is not
                       positive definite
- ``clifford``         concrete Clifford modules, boundary projectors, the
                       Clifford/exterior-form dictionary and the endomorphism
                       PSD certificates
- ``comparison``       singular values of df, stratum sampling (Halton
                       points shifted by ``random.Random(seed)``, faces
                       and edges on the face lattice's simplices),
                       hypothesis / conclusion margin reports, on floats
- ``sector_spectra``   closed-form and discretized spectra of the arc-link
                       operator, modified Bessel deficiency test (Gauss-
                       Legendre panels summed with ``math.fsum``), Hardy bound
- ``bessel``           modified Bessel functions I and K (series and
                       quadrature) and the package's Gauss-Legendre rules
                       (stdlib)
- ``corner_smoothing`` circular-arc corner fillets and turning integrals
                       (stdlib: Simpson's rule summed with ``math.fsum``)
- ``index_lab``        the index-versus-degree experiment on flat squares
                       and right triangles in closed form, ``index = V - E +
                       F = #parts``, for orientation-preserving affine
                       pieces (stdlib)
- ``cli``              command line front end
"""

__version__ = "0.1.0"
