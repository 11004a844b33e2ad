"""Block structure of operators that are block diagonal up to a permutation.

The KZ operators, the associators and the braid generators conserve weight,
so in the tensor basis each is block diagonal after a permutation of the
basis: its blocks are the connected components of its sparsity pattern.
``Blocks`` finds the components of one or more matrices, stacks the blocks
of equal size as (nb, b, b) arrays, so that one batched numpy call handles
each size, and scatters such stacks back into a CSR matrix.  ``inverse``
and ``cond`` are the whole-matrix quantities computed block by block.

A basis permutation that the matrices commute with (for the KZ operators,
the Weyl group of k relabelling index values) maps blocks onto blocks, so
only one block per orbit has to be computed.  ``Orbits`` takes such a
symmetry as an image of each basis index: the block holding the images of a
block is its representative.  It stacks only the representatives, verifies
that the matrices commute with the map, and copies each representative's
block to the blocks it represents when joining.
"""

import numpy as np
from scipy import sparse

from .errors import ParameterError

SYMMETRY_RTOL = 1e-13   # a block against its representative, relative to
                        # the largest entry of the matrix


def entries(m):
    """Rows, columns and values of the nonzero entries of a dense or sparse
    matrix, in row-major order of the rows."""
    if sparse.issparse(m):
        m = m.tocsr()
        m.sum_duplicates()
        r = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        c, v = m.indices, m.data
        keep = v != 0
        return r[keep], c[keep], v[keep]
    m = np.asarray(m)
    r, c = np.nonzero(m)
    return r, c, m[r, c]


def _components(n, r, c):
    """Label of each of n indices: the least index of its connected
    component in the graph with edges (r, c).

    Labels only ever move to a smaller index of the same component, and a
    fixed point is constant along every edge, so it is the component minimum.
    The relabelling ``label[label]`` lets labels jump along chains, which
    keeps the number of rounds small.
    """
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, r, label[c])
        np.minimum.at(new, c, label[r])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


class Blocks:
    """Connected components of the joint sparsity pattern of square matrices.

    ``index[c]`` is the (nb, b) array of the basis indices of the blocks of
    the c-th size, one block per row in ascending order; the blocks of one
    size are ordered by their least index.
    """

    def __init__(self, *mats):
        self.n = mats[0].shape[0]
        edges = [entries(m)[:2] for m in mats]
        label = _components(self.n, np.concatenate([r for r, _ in edges]),
                            np.concatenate([c for _, c in edges]))
        order = np.argsort(label, kind="stable")
        _, starts, counts = np.unique(label[order], return_index=True,
                                      return_counts=True)
        self.index = [order[starts[counts == b][:, None] + np.arange(b)]
                      for b in np.unique(counts)]
        # where each basis index sits: size class, block and row in the block
        self._cls = np.empty(self.n, dtype=np.intp)
        self._slot = np.empty(self.n, dtype=np.intp)
        self._pos = np.empty(self.n, dtype=np.intp)
        for c, idx in enumerate(self.index):
            nb, b = idx.shape
            self._cls[idx] = c
            self._slot[idx] = np.arange(nb)[:, None]
            self._pos[idx] = np.arange(b)

    def split(self, m):
        """The blocks of m, one (nb, b, b) stack per size class.

        m must be one of the matrices the blocks were found from, so every
        nonzero entry of m lies in a block.
        """
        r, c, v = entries(m)
        cls = self._cls[r]
        out = []
        for k, idx in enumerate(self.index):
            nb, b = idx.shape
            stack = np.zeros((nb, b, b), dtype=v.dtype)
            sel = cls == k
            rk = r[sel]
            stack[self._slot[rk], self._pos[rk], self._pos[c[sel]]] = v[sel]
            out.append(stack)
        return out

    def join(self, stacks):
        """The CSR matrix with the given blocks, one stack per size class."""
        rows = [np.broadcast_to(idx[:, :, None], s.shape).ravel()
                for idx, s in zip(self.index, stacks)]
        cols = [np.broadcast_to(idx[:, None, :], s.shape).ravel()
                for idx, s in zip(self.index, stacks)]
        data = np.concatenate([s.ravel() for s in stacks])
        return sparse.csr_array(
            (data, (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n))


class Orbits:
    """The blocks of ``blocks`` grouped by a basis permutation that the
    matrices commute with.

    ``image`` sends each basis index to its canonical image (None is the
    identity); the images of a block must fill one block of the same size,
    its representative.  ``reps[c]`` lists the representatives' rows of
    ``blocks.index[c]`` in ascending order, ``rep_of[c]`` the position in
    ``reps[c]`` of each block's representative and ``relabel[c]`` the row in
    the representative of the image of each index of each block.
    """

    def __init__(self, blocks, image=None):
        n = blocks.n
        image = np.arange(n) if image is None else np.asarray(image)
        if (image.shape != (n,)
                or not np.issubdtype(image.dtype, np.integer)
                or not np.all((0 <= image) & (image < n))):
            raise ParameterError(f"orbit map must send each of the {n} "
                                 "basis indices to a basis index")
        self.blocks = blocks
        self.reps, self.rep_of, self.relabel = [], [], []
        for c, idx in enumerate(blocks.index):
            nb, b = idx.shape
            img = image[idx]
            slot, rel = blocks._slot[img], blocks._pos[img]
            if not (np.all(blocks._cls[img] == c)
                    and np.all(slot == slot[:, :1])
                    and np.all(np.sort(rel, axis=1) == np.arange(b))):
                raise ParameterError("orbit map does not send every block "
                                     "onto one block of its size")
            is_rep = np.zeros(nb, dtype=bool)
            is_rep[slot[:, 0]] = True
            self.reps.append(np.flatnonzero(is_rep))
            self.rep_of.append((np.cumsum(is_rep) - 1)[slot[:, 0]])
            self.relabel.append(rel)

    def _spread(self, stacks):
        """Every block from its representative's in the given stacks,
        relabelled."""
        return [s[rep_of[:, None, None], rel[:, :, None], rel[:, None, :]]
                for s, rep_of, rel in zip(stacks, self.rep_of, self.relabel)]

    def split(self, m):
        """The representatives' blocks of m, one (nr, b, b) stack per size
        class.

        m must be one of the matrices the blocks were found from, and each
        block of m must equal its representative's block relabelled, within
        SYMMETRY_RTOL of the largest entry of m; otherwise ParameterError.
        """
        every = self.blocks.split(m)
        out = [s[reps] for s, reps in zip(every, self.reps)]
        tol = SYMMETRY_RTOL * max(float(np.abs(s).max()) for s in every)
        if any(np.any(np.abs(s - t) > tol)
               for s, t in zip(every, self._spread(out))):
            raise ParameterError("matrix does not commute with the orbit map: "
                                 "a block differs from its representative")
        return out

    def join(self, stacks):
        """The CSR matrix whose every block is its representative's block in
        the given stacks, relabelled; one stack per size class."""
        return self.blocks.join(self._spread(stacks))


def inverse(m):
    """m^{-1} as a CSR matrix, one batched inverse per block size."""
    blocks = Blocks(m)
    return blocks.join([np.linalg.inv(s) for s in blocks.split(m)])


def cond(m):
    """2-norm condition number of m: the largest singular value of any
    block over the smallest of any block."""
    sv = [np.linalg.svd(s, compute_uv=False) for s in Blocks(m).split(m)]
    smax = max(float(s[:, 0].max()) for s in sv)
    smin = min(float(s[:, -1].min()) for s in sv)
    return smax / smin if smin > 0 else np.inf
