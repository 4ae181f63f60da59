"""Derived closed-form stem endpoint table.

Generated by tools/generate_closed_forms.py; do not edit by hand.

Each _eN(k1, k2, k3, p3) evaluates one distinct coefficient expression.
VERTEX[case][key] = (xt, xL, yt, yL), four such functions: the meeting
point of the three tau-function terms named by `key` sits at
(xt*t + xL*log_a12, yt*t + yL*log_a12) for the first constraint branch
with zero phase constants.  Keys are sorted tuples of term exponent
vectors over (xi1, xi2, xi3); _abc names the vector (a, b, c).

Only the keys the t -> +-inf limit skeleton can name are present: a
junction is three vectors on one facet of the template's Newton polytope.
"""

def _e0(k1, k2, k3, p3):
    return -(-4*k1**2*k2*k3**2 - 4*k1**2*k3**3 + 4*k1**2*k3*p3 - 4*k1*k2**2*k3**2 - 12*k1*k2*k3**3 - 9*k1*k3**4 + 6*k1*k3**2*p3 + 3*k1*p3**2 - 4*k2**2*k3**3 - 4*k2**2*k3*p3 - 9*k2*k3**4 - 6*k2*k3**2*p3 + 3*k2*p3**2 - 6*k3**5 + 6*k3*p3**2)/(k3**2*(k1 + k2 + 2*k3))

def _e1(k1, k2, k3, p3):
    return 0

def _e2(k1, k2, k3, p3):
    return 2*(2*k1**2*k3 + 3*k1*k3**2 + 3*k1*p3 - 2*k2**2*k3 - 3*k2*k3**2 + 3*k2*p3 + 6*k3*p3)/(k3*(k1 + k2 + 2*k3))

def _e3(k1, k2, k3, p3):
    return -(k1*k3 + k3**2 + p3)/(k2*k3*(k1 + k2 + 2*k3))

def _e4(k1, k2, k3, p3):
    return 1/(k2*(k1 + k2 + 2*k3))

def _e5(k1, k2, k3, p3):
    return -(-4*k1*k2*k3**2 + 4*k1*k3*p3 - 4*k2*k3**3 - 4*k2*k3*p3 - k3**4 + 2*k3**2*p3 + 3*p3**2)/k3**2

def _e6(k1, k2, k3, p3):
    return -(k1*k3 + k3**2 + p3)/(k3*(k2 + k3)*(k1 + k2 + k3))

def _e7(k1, k2, k3, p3):
    return 2*(2*k1*k3 - 2*k2*k3 + k3**2 + 3*p3)/k3

def _e8(k1, k2, k3, p3):
    return 1/((k2 + k3)*(k1 + k2 + k3))

def _e9(k1, k2, k3, p3):
    return (-k2*k3 - k3**2 + p3)/(k1*k3*(k1 + k2 + 2*k3))

def _e10(k1, k2, k3, p3):
    return -1/(k1*(k1 + k2 + 2*k3))

def _e11(k1, k2, k3, p3):
    return -(-4*k1*k2*k3**2 - 4*k1*k3**3 + 4*k1*k3*p3 - 4*k2*k3*p3 - k3**4 - 2*k3**2*p3 + 3*p3**2)/k3**2

def _e12(k1, k2, k3, p3):
    return (-k2*k3 - k3**2 + p3)/(k3*(k1 + k3)*(k1 + k2 + k3))

def _e13(k1, k2, k3, p3):
    return 2*(2*k1*k3 - 2*k2*k3 - k3**2 + 3*p3)/k3

def _e14(k1, k2, k3, p3):
    return -1/((k1 + k3)*(k1 + k2 + k3))

def _e15(k1, k2, k3, p3):
    return -(k1**2*k3 + k1*k3**2 + k1*p3 + k2**2*k3 + k2*k3**2 - k2*p3)/(k1*k2*k3*(k1 + k2 + 2*k3))

def _e16(k1, k2, k3, p3):
    return (k1 - k2)/(k1*k2*(k1 + k2 + 2*k3))

def _e17(k1, k2, k3, p3):
    return -(-4*k2*k3*p3 - k3**4 - 2*k3**2*p3 + 3*p3**2)/k3**2

def _e18(k1, k2, k3, p3):
    return -p3/(k2*k3*(k2 + k3))

def _e19(k1, k2, k3, p3):
    return 2*(-2*k2*k3 - k3**2 + 3*p3)/k3

def _e20(k1, k2, k3, p3):
    return 1/(k2*(k2 + k3))

def _e21(k1, k2, k3, p3):
    return -(4*k1*k3*p3 - k3**4 + 2*k3**2*p3 + 3*p3**2)/k3**2

def _e22(k1, k2, k3, p3):
    return p3/(k1*k3*(k1 + k3))

def _e23(k1, k2, k3, p3):
    return 2*(2*k1*k3 + k3**2 + 3*p3)/k3

def _e24(k1, k2, k3, p3):
    return -1/(k1*(k1 + k3))

def _e25(k1, k2, k3, p3):
    return (-k2*k3 + p3)/(k1*k3*(k1 + k2 + k3))

def _e26(k1, k2, k3, p3):
    return -1/(k1*(k1 + k2 + k3))

def _e27(k1, k2, k3, p3):
    return -(k1*k3 + p3)/(k2*k3*(k1 + k2 + k3))

def _e28(k1, k2, k3, p3):
    return 1/(k2*(k1 + k2 + k3))

def _e29(k1, k2, k3, p3):
    return -(-4*k1**2*k2*k3**2 + 4*k1**2*k3**3 - 4*k1**2*k3*p3 - 4*k1*k2**2*k3**2 + 12*k1*k2*k3**3 - 9*k1*k3**4 + 6*k1*k3**2*p3 + 3*k1*p3**2 + 4*k2**2*k3**3 + 4*k2**2*k3*p3 - 9*k2*k3**4 - 6*k2*k3**2*p3 + 3*k2*p3**2 + 6*k3**5 - 6*k3*p3**2)/(k3**2*(k1 + k2 - 2*k3))

def _e30(k1, k2, k3, p3):
    return 2*(-2*k1**2*k3 + 3*k1*k3**2 + 3*k1*p3 + 2*k2**2*k3 - 3*k2*k3**2 + 3*k2*p3 - 6*k3*p3)/(k3*(k1 + k2 - 2*k3))

def _e31(k1, k2, k3, p3):
    return -(-4*k1*k3*p3 - k3**4 + 2*k3**2*p3 + 3*p3**2)/k3**2

def _e32(k1, k2, k3, p3):
    return 2*(-2*k1*k3 + k3**2 + 3*p3)/k3

def _e33(k1, k2, k3, p3):
    return (-k1*k3 + k3**2 + p3)/(k2*k3*(k1 + k2 - 2*k3))

def _e34(k1, k2, k3, p3):
    return -1/(k2*(k1 + k2 - 2*k3))

def _e35(k1, k2, k3, p3):
    return -(4*k2*k3*p3 - k3**4 - 2*k3**2*p3 + 3*p3**2)/k3**2

def _e36(k1, k2, k3, p3):
    return 2*(2*k2*k3 - k3**2 + 3*p3)/k3

def _e37(k1, k2, k3, p3):
    return -(k2*k3 - k3**2 + p3)/(k1*k3*(k1 + k2 - 2*k3))

def _e38(k1, k2, k3, p3):
    return 1/(k1*(k1 + k2 - 2*k3))

def _e39(k1, k2, k3, p3):
    return (-k1**2*k3 + k1*k3**2 + k1*p3 - k2**2*k3 + k2*k3**2 - k2*p3)/(k1*k2*k3*(k1 + k2 - 2*k3))

def _e40(k1, k2, k3, p3):
    return -(k1 - k2)/(k1*k2*(k1 + k2 - 2*k3))

def _e41(k1, k2, k3, p3):
    return -(-4*k1*k2*k3**2 + 4*k1*k3**3 - 4*k1*k3*p3 + 4*k2*k3*p3 - k3**4 - 2*k3**2*p3 + 3*p3**2)/k3**2

def _e42(k1, k2, k3, p3):
    return (-k1*k3 + p3)/(k2*k3*(k1 + k2 - k3))

def _e43(k1, k2, k3, p3):
    return 2*(-2*k1*k3 + 2*k2*k3 - k3**2 + 3*p3)/k3

def _e44(k1, k2, k3, p3):
    return -1/(k2*(k1 + k2 - k3))

def _e45(k1, k2, k3, p3):
    return -(-4*k1*k2*k3**2 - 4*k1*k3*p3 + 4*k2*k3**3 + 4*k2*k3*p3 - k3**4 + 2*k3**2*p3 + 3*p3**2)/k3**2

def _e46(k1, k2, k3, p3):
    return -(k2*k3 + p3)/(k1*k3*(k1 + k2 - k3))

def _e47(k1, k2, k3, p3):
    return 2*(-2*k1*k3 + 2*k2*k3 + k3**2 + 3*p3)/k3

def _e48(k1, k2, k3, p3):
    return 1/(k1*(k1 + k2 - k3))

def _e49(k1, k2, k3, p3):
    return -(4*k1**2*k2*k3**2 - 4*k1**2*k3**3 + 4*k1**2*k3*p3 - 4*k1*k2**2*k3**2 + 12*k1*k2*k3**3 - 9*k1*k3**4 + 6*k1*k3**2*p3 + 3*k1*p3**2 - 4*k2**2*k3**3 - 4*k2**2*k3*p3 + 9*k2*k3**4 + 6*k2*k3**2*p3 - 3*k2*p3**2 - 6*k3**5 + 6*k3*p3**2)/(k3**2*(k1 - k2 + 2*k3))

def _e50(k1, k2, k3, p3):
    return 2*(2*k1**2*k3 + 3*k1*k3**2 + 3*k1*p3 - 2*k2**2*k3 + 3*k2*k3**2 - 3*k2*p3 + 6*k3*p3)/(k3*(k1 - k2 + 2*k3))

def _e51(k1, k2, k3, p3):
    return -(k1*k3 + k3**2 + p3)/(k2*k3*(k1 - k2 + 2*k3))

def _e52(k1, k2, k3, p3):
    return 1/(k2*(k1 - k2 + 2*k3))

def _e53(k1, k2, k3, p3):
    return (k2*k3 - k3**2 + p3)/(k1*k3*(k1 - k2 + 2*k3))

def _e54(k1, k2, k3, p3):
    return -1/(k1*(k1 - k2 + 2*k3))

def _e55(k1, k2, k3, p3):
    return -(4*k1*k2*k3**2 - 4*k1*k3**3 + 4*k1*k3*p3 + 4*k2*k3*p3 - k3**4 - 2*k3**2*p3 + 3*p3**2)/k3**2

def _e56(k1, k2, k3, p3):
    return 2*(2*k1*k3 + 2*k2*k3 - k3**2 + 3*p3)/k3

def _e57(k1, k2, k3, p3):
    return -(k1**2*k3 + k1*k3**2 + k1*p3 - k2**2*k3 + k2*k3**2 - k2*p3)/(k1*k2*k3*(k1 - k2 + 2*k3))

def _e58(k1, k2, k3, p3):
    return (k1 - k2)/(k1*k2*(k1 - k2 + 2*k3))

def _e59(k1, k2, k3, p3):
    return p3/(k2*k3*(k2 - k3))

def _e60(k1, k2, k3, p3):
    return -1/(k2*(k2 - k3))

def _e61(k1, k2, k3, p3):
    return -(4*k1*k2*k3**2 + 4*k1*k3*p3 + 4*k2*k3**3 + 4*k2*k3*p3 - k3**4 + 2*k3**2*p3 + 3*p3**2)/k3**2

def _e62(k1, k2, k3, p3):
    return -(k1*k3 + k2*k3 + p3)/(k1*k3*(k2 - k3))

def _e63(k1, k2, k3, p3):
    return 2*(2*k1*k3 + 2*k2*k3 + k3**2 + 3*p3)/k3

def _e64(k1, k2, k3, p3):
    return 1/(k1*(k2 - k3))

def _e65(k1, k2, k3, p3):
    return -(4*k1*k2*k3**2 - 4*k1*k3**3 - 4*k1*k3*p3 - 4*k2*k3**3 - 4*k2*k3*p3 + 3*k3**4 + 6*k3**2*p3 + 3*p3**2)/k3**2

def _e66(k1, k2, k3, p3):
    return 2*(-2*k1*k3 - 2*k2*k3 + 3*k3**2 + 3*p3)/k3

def _e67(k1, k2, k3, p3):
    return -(-4*k2*k3*p3 - k3**4 + 2*k3**2*p3 + 3*p3**2)/k3**2

def _e68(k1, k2, k3, p3):
    return 2*(-2*k2*k3 + k3**2 + 3*p3)/k3

def _e69(k1, k2, k3, p3):
    return -(4*k1*k2*k3**2 - 4*k1*k3*p3 - 4*k2*k3*p3 - k3**4 + 2*k3**2*p3 + 3*p3**2)/k3**2

def _e70(k1, k2, k3, p3):
    return 2*(-2*k1*k3 - 2*k2*k3 + k3**2 + 3*p3)/k3

def _e71(k1, k2, k3, p3):
    return -(-4*k1*k3*p3 - k3**4 - 2*k3**2*p3 + 3*p3**2)/k3**2

def _e72(k1, k2, k3, p3):
    return 2*(-2*k1*k3 - k3**2 + 3*p3)/k3

def _e73(k1, k2, k3, p3):
    return -(4*k1*k2*k3**2 - 4*k1*k3*p3 - 4*k2*k3*p3 - k3**4 - 2*k3**2*p3 + 3*p3**2)/k3**2

def _e74(k1, k2, k3, p3):
    return 2*(-2*k1*k3 - 2*k2*k3 - k3**2 + 3*p3)/k3

def _e75(k1, k2, k3, p3):
    return -(4*k1*k2*k3**2 + 4*k1*k3**3 - 4*k1*k3*p3 + 4*k2*k3**3 - 4*k2*k3*p3 + 3*k3**4 - 6*k3**2*p3 + 3*p3**2)/k3**2

def _e76(k1, k2, k3, p3):
    return 2*(-2*k1*k3 - 2*k2*k3 - 3*k3**2 + 3*p3)/k3

_000 = (0, 0, 0)
_001 = (0, 0, 1)
_010 = (0, 1, 0)
_011 = (0, 1, 1)
_100 = (1, 0, 0)
_101 = (1, 0, 1)
_110 = (1, 1, 0)
_111 = (1, 1, 1)

VERTEX = {
    'c2_1': {
        (_000, _010, _100): (_e0, _e1, _e2, _e1),
        (_000, _100, _110): (_e0, _e3, _e2, _e4),
        (_000, _100, _111): (_e5, _e6, _e7, _e8),
        (_000, _010, _110): (_e0, _e9, _e2, _e10),
        (_000, _010, _111): (_e11, _e12, _e13, _e14),
        (_010, _100, _110): (_e0, _e15, _e2, _e16),
        (_100, _110, _111): (_e17, _e18, _e19, _e20),
        (_010, _110, _111): (_e21, _e22, _e23, _e24),
    },
    'c2_2': {
        (_000, _010, _011): (_e17, _e1, _e19, _e1),
        (_000, _010, _111): (_e11, _e12, _e13, _e14),
        (_000, _011, _111): (_e5, _e25, _e7, _e26),
        (_010, _011, _111): (_e21, _e22, _e23, _e24),
    },
    'c2_3': {
        (_000, _100, _101): (_e21, _e1, _e23, _e1),
        (_000, _100, _111): (_e5, _e6, _e7, _e8),
        (_000, _101, _111): (_e11, _e27, _e13, _e28),
        (_100, _101, _111): (_e17, _e18, _e19, _e20),
    },
    'c2_4': {
        (_000, _001, _101): (_e21, _e1, _e23, _e1),
        (_000, _001, _011): (_e17, _e1, _e19, _e1),
        (_000, _101, _111): (_e11, _e27, _e13, _e28),
        (_000, _011, _111): (_e5, _e25, _e7, _e26),
        (_001, _011, _101): (_e0, _e1, _e2, _e1),
        (_001, _101, _111): (_e0, _e3, _e2, _e4),
        (_001, _011, _111): (_e0, _e9, _e2, _e10),
        (_011, _101, _111): (_e0, _e15, _e2, _e16),
    },
    'w2': {
        (_000, _010, _100): (_e29, _e1, _e30, _e1),
        (_000, _001, _100): (_e31, _e1, _e32, _e1),
        (_000, _100, _110): (_e29, _e33, _e30, _e34),
        (_000, _001, _010): (_e35, _e1, _e36, _e1),
        (_000, _010, _110): (_e29, _e37, _e30, _e38),
        (_010, _100, _110): (_e29, _e39, _e30, _e40),
        (_001, _100, _110): (_e41, _e42, _e43, _e44),
        (_001, _010, _110): (_e45, _e46, _e47, _e48),
    },
    'm2': {
        (_000, _010, _100): (_e49, _e1, _e50, _e1),
        (_000, _100, _110): (_e49, _e51, _e50, _e52),
        (_000, _100, _101): (_e21, _e1, _e23, _e1),
        (_000, _010, _110): (_e49, _e53, _e50, _e54),
        (_000, _010, _101): (_e55, _e1, _e56, _e1),
        (_010, _100, _110): (_e49, _e57, _e50, _e58),
        (_100, _101, _110): (_e35, _e59, _e36, _e60),
        (_010, _101, _110): (_e61, _e62, _e63, _e64),
    },
    'c3_1': {
        (_000, _010, _100): (_e65, _e1, _e66, _e1),
        (_000, _001, _100): (_e31, _e1, _e32, _e1),
        (_000, _001, _010): (_e67, _e1, _e68, _e1),
        (_001, _010, _100): (_e69, _e1, _e70, _e1),
    },
    'c3_2': {
        (_000, _001, _101): (_e71, _e1, _e72, _e1),
        (_000, _001, _011): (_e17, _e1, _e19, _e1),
        (_000, _011, _101): (_e73, _e1, _e74, _e1),
        (_001, _011, _101): (_e75, _e1, _e76, _e1),
    },
}
