/* Compiled kernels for the hot inner loops.

   A C99 CPython extension with three functions of
   superpatterns._kernels_py, which documents their semantics and is the
   reference the parity tests compare against: containment
   (lex_min_embedding) and the two permutation scans (scan_all_perms,
   scan_perm_list).  superpatterns.kernels takes these three from here when
   this module imports, and from the twin otherwise; the layered search
   comes from superpatterns.chains on either backend.  Values, lengths and
   positions are held as C ints, and ranks as 64-bit integers: an argument
   that does not fit raises OverflowError, and a length whose ranks do not
   fit raises ValueError.  scan_all_perms scans all m! permutations of a
   length in rank order, and scan_perm_list the whole list it is given.
   Each returns (the first witness or -1, scanned); an empty list gives
   (-1, 0).  The interpreter lock is held throughout. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdlib.h>
#include <string.h>

#define MAX_PERMUTATION_LENGTH 20 /* m! ranks stay inside a signed 64-bit int */

/* Copy the ints of seq into (*buf)[at .. at + *n), growing *buf (capacity
   *cap) as needed.  The caller frees *buf.  Only ints are accepted (no
   __index__), so no Python code runs while the items are read. */
static int load_ints(PyObject *seq, int **buf, Py_ssize_t *cap, Py_ssize_t at, Py_ssize_t *n)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    if (fast == NULL)
        return -1;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(fast);
    if (len >= INT_MAX)
        goto too_big;
    if (*buf == NULL || at + len > *cap) {
        Py_ssize_t want = 2 * (at + len) + 1;
        int *grown = realloc(*buf, (size_t)want * sizeof(int));
        if (grown == NULL) { PyErr_NoMemory(); goto fail; }
        *buf = grown;
        *cap = want;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < len; i++) {
        if (!PyLong_Check(items[i])) {
            PyErr_Format(PyExc_TypeError, "expected int, got %.100s", Py_TYPE(items[i])->tp_name);
            goto fail;
        }
        long v = PyLong_AsLong(items[i]);
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (v < INT_MIN || v > INT_MAX)
            goto too_big;
        (*buf)[at + i] = (int)v;
    }
    Py_DECREF(fast);
    *n = len;
    return 0;
too_big:
    PyErr_SetString(PyExc_OverflowError, "value or length does not fit in a C int");
fail:
    Py_DECREF(fast);
    return -1;
}

static PyObject *tuple_of(const int *v, Py_ssize_t n)
{
    PyObject *out = PyTuple_New(n);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyLong_FromLong(v[i]);
        if (item == NULL) { Py_DECREF(out); return NULL; }
        PyTuple_SET_ITEM(out, i, item);
    }
    return out;
}

/* Row i of win, for i = 0..k, holds a pair (a, b) for each j = i..k-1: the
   entries of pat[0 .. i) nearest below and above pat[j] in value, with k and
   k + 1 standing for the sentinels 0 and the host's top value; row i has
   k - i pairs and follows row i - 1.  role[i] has bit 1 set when entry i is
   the lower end a of some pair of row i + 1, and bit 2 when it is the upper
   end b of one.  These are _kernels_py._windows and _roles. */
static void shape(const int *pat, Py_ssize_t k, int *win, unsigned char *role)
{
    int *row = win, *next;
    for (Py_ssize_t j = 0; j < k; j++) {
        row[2 * j] = (int)k;
        row[2 * j + 1] = (int)k + 1;
    }
    /* row i + 1 is row i with entry i taken in */
    for (Py_ssize_t i = 0; i < k; i++, row = next) {
        next = row + 2 * (k - i);
        role[i] = 0;
        for (Py_ssize_t j = i + 1; j < k; j++) {
            int a = row[2 * (j - i)], b = row[2 * (j - i) + 1];
            if (pat[i] < pat[j]) {
                if (a == k || pat[i] > pat[a])
                    a = (int)i;
            }
            else if (b == k + 1 || pat[i] < pat[b])
                b = (int)i;
            next[2 * (j - i - 1)] = a;
            next[2 * (j - i - 1) + 1] = b;
            role[i] |= (a == i) | (b == i) << 1;
        }
    }
}

/* Fill pos[0 .. k) with the lexicographically smallest embedding of the
   pattern whose windows and roles (see shape) are win and role into host,
   and return 1, or return 0 when there is none.  pos holds 4k + 2 ints, the
   last 3k + 2 of them scratch.  This is _kernels_py._embed: a placement
   that fails rules out later placements of the same entry with any value
   (role 0), a larger one (role 1) or a smaller one (role 2). */
static int embed(Py_ssize_t k, const int *win, const unsigned char *role,
                 const int *host, Py_ssize_t m, int *pos)
{
    if (k == 0)
        return 1;
    if (k > m)
        return 0;
    int *val = pos + k;  /* the values placed, then the sentinels */
    int *lows = val + k + 2, *highs = lows + k;
    const int *row = win;  /* row i of win */
    Py_ssize_t i = 0, p = 0;
    int lo = 0, hi = (int)m + 1;
    val[k] = lo;
    val[k + 1] = hi;
    for (;;) {
        const int *later = row + 2 * (k - i);
        Py_ssize_t limit = m - (k - i - 1), left = k - i - 1;
        for (; p < limit; p++) {
            int v = host[p];
            if (v <= lo || v >= hi)
                continue;
            /* place each later entry at the first free position in its
               window given pat[0 .. i] alone */
            val[i] = v;
            Py_ssize_t q = p + 1, j = 0;
            for (; j < left; j++, q++) {
                int lo2 = val[later[2 * j]], hi2 = val[later[2 * j + 1]];
                while (q < m && !(lo2 < host[q] && host[q] < hi2))
                    q++;
                if (q == m)
                    break;
            }
            if (j == left)
                break;
            if (role[i] == 0) {
                p = limit;
                break;
            }
            if (role[i] == 1)
                hi = v;
            else if (role[i] == 2)
                lo = v;
        }
        if (p < limit) {
            pos[i] = (int)p;
            lows[i] = lo;
            highs[i] = hi;
            if (++i == k)
                return 1;
            row = later;
            lo = val[row[0]];
            hi = val[row[1]];
            p++;
        }
        else {
            /* the placement of entry i - 1 failed too */
            do {
                if (--i < 0)
                    return 0;
                row -= 2 * (k - i);
            } while (role[i] == 0);
            lo = lows[i];
            hi = highs[i];
            if (role[i] == 1)
                hi = val[i];
            else if (role[i] == 2)
                lo = val[i];
            p = pos[i] + 1;
        }
    }
}

/* A list of patterns flattened into one int array, with the windows and
   roles of each pattern no longer than the longest host it will meet. */
typedef struct {
    int *data;       /* pattern t is data[off[t] .. off[t + 1]) */
    Py_ssize_t *off;
    Py_ssize_t count;
    int *win;        /* pattern t's windows start at win[woff[t]] */
    Py_ssize_t *woff;
    unsigned char *role;  /* pattern t's roles start at role[off[t]] */
    int *pos;        /* embedding scratch, 4k + 2 ints for the longest k */
} Flat;

static void flat_free(Flat *f)
{
    free(f->data);
    free(f->off);
    free(f->win);
    free(f->woff);
    free(f->role);
    free(f->pos);
}

/* On failure everything is already freed.  A pattern longer than max_m
   embeds in no host, and gets no windows. */
static int flatten(PyObject *patterns, Py_ssize_t max_m, Flat *f)
{
    Py_ssize_t cap = 0, len, longest = 0;
    memset(f, 0, sizeof *f);
    /* a tuple cannot change while the items' own conversions run */
    PyObject *tup = PySequence_Tuple(patterns);
    if (tup == NULL)
        return -1;
    f->count = PyTuple_GET_SIZE(tup);
    f->off = malloc((size_t)(f->count + 1) * sizeof(Py_ssize_t));
    f->woff = malloc((size_t)(f->count + 1) * sizeof(Py_ssize_t));
    if (f->off == NULL || f->woff == NULL) { PyErr_NoMemory(); goto fail; }
    f->off[0] = f->woff[0] = 0;
    for (Py_ssize_t t = 0; t < f->count; t++) {
        if (load_ints(PyTuple_GET_ITEM(tup, t), &f->data, &cap, f->off[t], &len) < 0)
            goto fail;
        f->off[t + 1] = f->off[t] + len;
        Py_ssize_t k = len > max_m ? 0 : len;
        if (k > longest)
            longest = k;
        /* k (k + 1) ints of windows, a pair for each j >= i */
        if (k > 0 && (PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(int) - f->woff[t]) / k < k + 1) {
            PyErr_NoMemory();
            goto fail;
        }
        f->woff[t + 1] = f->woff[t] + k * (k + 1);
    }
    f->win = malloc((size_t)(f->woff[f->count] + 1) * sizeof(int));
    f->role = malloc((size_t)(f->off[f->count] + 1));
    f->pos = malloc((size_t)(4 * longest + 2) * sizeof(int));
    if (f->win == NULL || f->role == NULL || f->pos == NULL) { PyErr_NoMemory(); goto fail; }
    for (Py_ssize_t t = 0; t < f->count; t++)
        if (f->woff[t + 1] > f->woff[t])
            shape(f->data + f->off[t], f->off[t + 1] - f->off[t], f->win + f->woff[t], f->role + f->off[t]);
    Py_DECREF(tup);
    return 0;
fail:
    Py_DECREF(tup);
    flat_free(f);
    return -1;
}

static int embeds(Flat *f, Py_ssize_t t, const int *host, Py_ssize_t m)
{
    return embed(f->off[t + 1] - f->off[t], f->win + f->woff[t], f->role + f->off[t],
                 host, m, f->pos);
}

static int embeds_all(Flat *f, const int *host, Py_ssize_t m)
{
    for (Py_ssize_t t = 0; t < f->count; t++)
        if (!embeds(f, t, host, m))
            return 0;
    return 1;
}

static long long factorial(int m)
{
    long long f = 1;
    for (int i = 2; i <= m; i++)
        f *= i;
    return f;
}

static int bad_length(int m, int max_m)
{
    if (0 <= m && m <= max_m)
        return 0;
    PyErr_Format(PyExc_ValueError, "length %d is outside 0..%d (64-bit ranks)", m, max_m);
    return 1;
}

static void next_permutation(int *a, int n)
{
    int i = n - 2, j = n - 1, tmp;
    while (i >= 0 && a[i] >= a[i + 1])
        i--;
    if (i < 0)
        return;
    while (a[j] <= a[i])
        j--;
    tmp = a[i], a[i] = a[j], a[j] = tmp;
    for (int lo = i + 1, hi = n - 1; lo < hi; lo++, hi--)
        tmp = a[lo], a[lo] = a[hi], a[hi] = tmp;
}

static PyObject *scan_result(long long found, long long count)
{
    return Py_BuildValue("(LL)", found, found < 0 ? count : found + 1);
}

/* The positions of the lex-min embedding as a tuple, or None. */
static PyObject *lex_min_embedding(PyObject *self, PyObject *args)
{
    PyObject *pattern, *host, *one, *result = NULL;
    int *hst = NULL;
    Py_ssize_t hcap = 0, m;
    Flat f;
    if (!PyArg_UnpackTuple(args, "lex_min_embedding", 2, 2, &pattern, &host))
        return NULL;
    if (load_ints(host, &hst, &hcap, 0, &m) < 0 || (one = PyTuple_Pack(1, pattern)) == NULL) {
        free(hst);
        return NULL;
    }
    if (flatten(one, m, &f) == 0) {
        result = embeds(&f, 0, hst, m) ? tuple_of(f.pos, f.off[1]) : Py_NewRef(Py_None);
        flat_free(&f);
    }
    Py_DECREF(one);
    free(hst);
    return result;
}

static PyObject *scan_all_perms(PyObject *self, PyObject *args)
{
    int m, perm[MAX_PERMUTATION_LENGTH];
    PyObject *patterns;
    long long found = -1;
    Flat f;
    if (!PyArg_ParseTuple(args, "iO:scan_all_perms", &m, &patterns)
        || bad_length(m, MAX_PERMUTATION_LENGTH) || flatten(patterns, m, &f) < 0)
        return NULL;
    long long total = factorial(m);
    for (int i = 0; i < m; i++)
        perm[i] = i + 1;
    for (long long r = 0; r < total && found < 0; r++)
        if (embeds_all(&f, perm, m))
            found = r;
        else
            next_permutation(perm, m);
    flat_free(&f);
    return scan_result(found, total);
}

static PyObject *scan_perm_list(PyObject *self, PyObject *args)
{
    PyObject *candidates, *patterns;
    Py_ssize_t found = -1, cap = 0, m;
    int *host = NULL;
    Flat f;
    if (!PyArg_UnpackTuple(args, "scan_perm_list", 2, 2, &candidates, &patterns))
        return NULL;
    Py_ssize_t count = PySequence_Size(candidates), longest = 0;
    if (count < 0)
        return NULL;
    /* a pattern longer than every candidate gets no windows (flatten) */
    for (Py_ssize_t idx = 0; idx < count; idx++) {
        PyObject *cand = PySequence_GetItem(candidates, idx);
        m = cand == NULL ? -1 : PyObject_Length(cand);
        Py_XDECREF(cand);
        if (m < 0)
            return NULL;
        if (m > longest)
            longest = m;
    }
    if (flatten(patterns, longest, &f) < 0)
        return NULL;
    for (Py_ssize_t idx = 0; idx < count && found < 0; idx++) {
        PyObject *cand = PySequence_GetItem(candidates, idx);
        int loaded = cand != NULL && load_ints(cand, &host, &cap, 0, &m) == 0;
        Py_XDECREF(cand);
        if (!loaded) {
            free(host);
            flat_free(&f);
            return NULL;
        }
        if (embeds_all(&f, host, m))
            found = idx;
    }
    free(host);
    flat_free(&f);
    return scan_result(found, count);
}

static PyMethodDef methods[] = {
    {"lex_min_embedding", lex_min_embedding, METH_VARARGS, "Lex-min embedding, or None."},
    {"scan_all_perms", scan_all_perms, METH_VARARGS, "(rank or -1, scanned) over permutations."},
    {"scan_perm_list", scan_perm_list, METH_VARARGS, "(index or -1, scanned) over a list."},
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *module)
{
    return PyModule_AddStringConstant(module, "BACKEND", "c");
}

static PyModuleDef_Slot slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "superpatterns._kernels",
    .m_doc = "Compiled kernels; superpatterns._kernels_py documents their semantics.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModuleDef_Init(&module_def);
}
