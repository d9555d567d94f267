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
   fit raises ValueError.  scan_all_perms takes a half-open range [lo, hi) of
   permutation ranks with 0 <= lo <= hi <= m!, else ValueError, and
   scan_perm_list the whole list it is given.  Each returns (the first
   witness or -1, scanned); an empty range or list gives (-1, 0).  The
   interpreter lock is held throughout; parallel runs use processes. */

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

/* A list of patterns (or layer profiles) flattened into one int array. */
typedef struct {
    int *data;       /* pattern t is data[off[t] .. off[t + 1]) */
    Py_ssize_t *off;
    Py_ssize_t count;
    int *pos;        /* embedding scratch, as long as all patterns together */
} Flat;

static void flat_free(Flat *f)
{
    free(f->data);
    free(f->off);
    free(f->pos);
}

/* On failure everything is already freed. */
static int flatten(PyObject *patterns, Flat *f)
{
    Py_ssize_t cap = 0, len;
    memset(f, 0, sizeof *f);
    /* a tuple cannot change while the items' own conversions run */
    PyObject *tup = PySequence_Tuple(patterns);
    if (tup == NULL)
        return -1;
    f->count = PyTuple_GET_SIZE(tup);
    f->off = malloc((size_t)(f->count + 1) * sizeof(Py_ssize_t));
    if (f->off == NULL) { PyErr_NoMemory(); goto fail; }
    f->off[0] = 0;
    for (Py_ssize_t t = 0; t < f->count; t++) {
        if (load_ints(PyTuple_GET_ITEM(tup, t), &f->data, &cap, f->off[t], &len) < 0)
            goto fail;
        f->off[t + 1] = f->off[t] + len;
    }
    f->pos = malloc((size_t)(f->off[f->count] + 1) * sizeof(int));
    if (f->pos == NULL) { PyErr_NoMemory(); goto fail; }
    Py_DECREF(tup);
    return 0;
fail:
    Py_DECREF(tup);
    flat_free(f);
    return -1;
}

/* Fill pos[0 .. k) with the lexicographically smallest embedding of pat
   into host and return 1, or return 0 when there is none. */
static int embed(const int *pat, Py_ssize_t k, const int *host, Py_ssize_t m, int *pos)
{
    Py_ssize_t i = 0, start = 0;
    if (k == 0)
        return 1;
    if (k > m)
        return 0;
    for (;;) {
        /* value window for pat[i] given the matched prefix */
        long long lo = 0, hi = (long long)m + 1;
        for (Py_ssize_t j = 0; j < i; j++) {
            int v = host[pos[j]];
            if (pat[j] < pat[i])
                lo = v > lo ? v : lo;
            else if (v < hi)
                hi = v;
        }
        Py_ssize_t limit = m - (k - i - 1), p = start;
        while (p < limit && !(lo < host[p] && host[p] < hi))
            p++;
        if (p < limit) {
            pos[i++] = (int)p;
            if (i == k)
                return 1;
            start = p + 1;
        }
        else {
            if (--i < 0)
                return 0;
            start = pos[i] + 1;
        }
    }
}

static int embeds_all(Flat *f, const int *host, Py_ssize_t m)
{
    for (Py_ssize_t t = 0; t < f->count; t++)
        if (!embed(f->data + f->off[t], f->off[t + 1] - f->off[t], host, m, f->pos))
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

static void unrank_permutation(int m, long long rank, int *perm)
{
    int vals[MAX_PERMUTATION_LENGTH];
    long long f = factorial(m);
    for (int i = 0; i < m; i++)
        vals[i] = i + 1;
    for (int i = m; i >= 1; i--) {
        f /= i;
        int d = (int)(rank / f);
        rank %= f;
        perm[m - i] = vals[d];
        memmove(vals + d, vals + d + 1, (size_t)(i - d - 1) * sizeof(int));
    }
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

static PyObject *scan_result(long long found, long long lo, long long hi)
{
    return Py_BuildValue("(LL)", found, found < 0 ? hi - lo : found - lo + 1);
}

/* The positions of the lex-min embedding as a tuple, or None. */
static PyObject *lex_min_embedding(PyObject *self, PyObject *args)
{
    PyObject *pattern, *host, *result = NULL;
    int *pat = NULL, *hst = NULL, *pos = NULL;
    Py_ssize_t pcap = 0, hcap = 0, k, m;
    if (!PyArg_UnpackTuple(args, "lex_min_embedding", 2, 2, &pattern, &host))
        return NULL;
    if (load_ints(pattern, &pat, &pcap, 0, &k) < 0 || load_ints(host, &hst, &hcap, 0, &m) < 0)
        goto done;
    pos = malloc((size_t)(k > 0 ? k : 1) * sizeof(int));
    if (pos == NULL) { PyErr_NoMemory(); goto done; }
    result = embed(pat, k, hst, m, pos) ? tuple_of(pos, k) : Py_NewRef(Py_None);
done:
    free(pat);
    free(hst);
    free(pos);
    return result;
}

static PyObject *scan_all_perms(PyObject *self, PyObject *args)
{
    int m, perm[MAX_PERMUTATION_LENGTH];
    PyObject *patterns;
    long long lo, hi, found = -1;
    Flat f;
    if (!PyArg_ParseTuple(args, "iOLL:scan_all_perms", &m, &patterns, &lo, &hi)
        || bad_length(m, MAX_PERMUTATION_LENGTH))
        return NULL;
    long long total = factorial(m);
    if (!(0 <= lo && lo <= hi && hi <= total))
        return PyErr_Format(PyExc_ValueError, "ranks [%lld, %lld) are outside [0, %lld)", lo, hi, total);
    if (flatten(patterns, &f) < 0)
        return NULL;
    if (lo < hi)
        unrank_permutation(m, lo, perm);
    for (long long r = lo; r < hi && found < 0; r++)
        if (embeds_all(&f, perm, m))
            found = r;
        else
            next_permutation(perm, m);
    flat_free(&f);
    return scan_result(found, lo, hi);
}

static PyObject *scan_perm_list(PyObject *self, PyObject *args)
{
    PyObject *candidates, *patterns;
    Py_ssize_t found = -1, cap = 0, m;
    int *host = NULL;
    Flat f;
    if (!PyArg_UnpackTuple(args, "scan_perm_list", 2, 2, &candidates, &patterns))
        return NULL;
    Py_ssize_t count = PySequence_Size(candidates);
    if (count < 0 || flatten(patterns, &f) < 0)
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
    return scan_result(found, 0, count);
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
