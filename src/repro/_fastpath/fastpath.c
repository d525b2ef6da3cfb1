/* Compiled H-FSC hot-path kernels over FlatState's plain-list arrays.
 *
 * Drop-in replacements for the pure-Python kernels in
 * repro/core/flatstate.py: serve_step, activate_step, activate_ls,
 * passivate_ls, ls_descend and the flat eligible-set operations.  Each
 * function takes the FlatState instance and operates on the *same*
 * Python list objects the pure kernels use, so the two paths are freely
 * interchangeable mid-run and state snapshots look identical.
 *
 * Every float expression is a literal transcription of the Python
 * kernel (same operands, same order); IEEE-754 double arithmetic in C
 * matches CPython float arithmetic bit-for-bit, so schedules are
 * byte-identical -- the golden-digest suite runs under both paths in CI.
 *
 * The per-state list objects are looked up once and cached in a capsule
 * stored on the FlatState's ``_ccache`` slot (the lists live as long as
 * the state and are only ever mutated in place, never rebound).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* ---- array table --------------------------------------------------------
 * One slot per FlatState list the kernels touch.  The dc/ec/vc/ul curve
 * blocks must stay contiguous and field-ordered (x0,y0,m1,dx,m2,kx,ky)
 * so a curve is addressed as base + field.
 */

#define ARRAY_NAMES(X) \
    /* curve blocks: order matters */ \
    X(dc_x0) X(dc_y0) X(dc_m1) X(dc_dx) X(dc_m2) X(dc_kx) X(dc_ky) \
    X(ec_x0) X(ec_y0) X(ec_m1) X(ec_dx) X(ec_m2) X(ec_kx) X(ec_ky) \
    X(vc_x0) X(vc_y0) X(vc_m1) X(vc_dx) X(vc_m2) X(vc_kx) X(vc_ky) \
    X(ul_x0) X(ul_y0) X(ul_m1) X(ul_dx) X(ul_m2) X(ul_kx) X(ul_ky) \
    X(dc_on) X(ec_on) X(vc_on) X(ul_on) \
    /* scalars */ \
    X(cumul_rt) X(total_work) X(vt) X(eligible) X(deadline) X(fit_time) \
    X(vt_watermark) X(bytes_rt) X(bytes_ls) \
    /* spec mirrors */ \
    X(rt_m1) X(rt_d) X(rt_m2) X(rt_on) \
    X(es_m1) X(es_d) X(es_m2) \
    X(ls_m1) X(ls_d) X(ls_m2) X(ls_on) \
    X(ulsp_m1) X(ulsp_d) X(ulsp_m2) X(ulsp_on) \
    /* structure */ \
    X(parent) X(nactive) X(ls_active) \
    /* sibling heaps */ \
    X(hmin_key) X(hmin_seq) X(hmin_slot) X(hmin_pos) X(hmin_ctr) \
    X(hmax_key) X(hmax_seq) X(hmax_slot) X(hmax_pos) X(hmax_ctr) \
    /* eligible set */ \
    X(req_e) X(req_d) \
    X(efut_key) X(efut_seq) X(efut_slot) X(efut_pos) \
    X(erdy_key) X(erdy_seq) X(erdy_slot) X(erdy_pos)

enum {
#define X(name) A_##name,
    ARRAY_NAMES(X)
#undef X
    A_COUNT
};

static const char *array_names[] = {
#define X(name) #name,
    ARRAY_NAMES(X)
#undef X
};

/* Curve kind bases (contiguous 7-field blocks). */
#define CURVE_DC A_dc_x0
#define CURVE_EC A_ec_x0
#define CURVE_VC A_vc_x0
#define CURVE_UL A_ul_x0
#define F_X0 0
#define F_Y0 1
#define F_M1 2
#define F_DX 3
#define F_M2 4
#define F_KX 5
#define F_KY 6

typedef struct {
    PyObject *a[A_COUNT]; /* strong references to the state's lists */
} StateCache;

static PyObject *str_ccache;   /* "_ccache" */
static PyObject *str_efut_ctr; /* "efut_ctr" */
static PyObject *str_erdy_ctr; /* "erdy_ctr" */

static void cache_destructor(PyObject *capsule)
{
    StateCache *st = (StateCache *)PyCapsule_GetPointer(capsule, "repro._fastpath.cache");
    if (st != NULL) {
        for (int i = 0; i < A_COUNT; i++)
            Py_XDECREF(st->a[i]);
        PyMem_Free(st);
    }
}

static StateCache *get_cache(PyObject *state)
{
    PyObject *capsule = PyObject_GetAttr(state, str_ccache);
    if (capsule == NULL)
        return NULL;
    if (capsule != Py_None) {
        StateCache *st = (StateCache *)PyCapsule_GetPointer(capsule, "repro._fastpath.cache");
        Py_DECREF(capsule);
        return st;
    }
    Py_DECREF(capsule);
    StateCache *st = (StateCache *)PyMem_Calloc(1, sizeof(StateCache));
    if (st == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (int i = 0; i < A_COUNT; i++) {
        PyObject *lst = PyObject_GetAttrString(state, array_names[i]);
        if (lst == NULL || !PyList_CheckExact(lst)) {
            Py_XDECREF(lst);
            for (int j = 0; j < i; j++)
                Py_XDECREF(st->a[j]);
            PyMem_Free(st);
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_TypeError, "FlatState.%s is not a list", array_names[i]);
            return NULL;
        }
        st->a[i] = lst;
    }
    capsule = PyCapsule_New(st, "repro._fastpath.cache", cache_destructor);
    if (capsule == NULL) {
        for (int i = 0; i < A_COUNT; i++)
            Py_XDECREF(st->a[i]);
        PyMem_Free(st);
        return NULL;
    }
    if (PyObject_SetAttr(state, str_ccache, capsule) < 0) {
        Py_DECREF(capsule);
        return NULL;
    }
    Py_DECREF(capsule);
    return st;
}

/* ---- list cell helpers -------------------------------------------------- */

static inline double get_d(PyObject *lst, Py_ssize_t i)
{
    return PyFloat_AS_DOUBLE(PyList_GET_ITEM(lst, i));
}

static inline long get_l(PyObject *lst, Py_ssize_t i)
{
    return PyLong_AsLong(PyList_GET_ITEM(lst, i));
}

static inline int set_d(PyObject *lst, Py_ssize_t i, double v)
{
    PyObject *boxed = PyFloat_FromDouble(v);
    if (boxed == NULL)
        return -1;
    PyObject *old = PyList_GET_ITEM(lst, i);
    PyList_SET_ITEM(lst, i, boxed);
    Py_DECREF(old);
    return 0;
}

static inline int set_l(PyObject *lst, Py_ssize_t i, long v)
{
    PyObject *boxed = PyLong_FromLong(v);
    if (boxed == NULL)
        return -1;
    PyObject *old = PyList_GET_ITEM(lst, i);
    PyList_SET_ITEM(lst, i, boxed);
    Py_DECREF(old);
    return 0;
}

/* Remove the last element of a list, optionally stealing it (returns a
 * new reference when ``out`` is non-NULL). */
static inline int list_pop_last(PyObject *lst, PyObject **out)
{
    Py_ssize_t n = PyList_GET_SIZE(lst);
    if (out != NULL) {
        *out = PyList_GET_ITEM(lst, n - 1);
        Py_INCREF(*out);
    }
    return PyList_SetSlice(lst, n - 1, n, NULL);
}

/* ---- curve kernels ------------------------------------------------------ */

static double curve_value(StateCache *st, int base, Py_ssize_t slot, double x)
{
    double x0 = get_d(st->a[base + F_X0], slot);
    double y0 = get_d(st->a[base + F_Y0], slot);
    if (x <= x0)
        return y0;
    double dx = get_d(st->a[base + F_DX], slot);
    if (x <= x0 + dx)
        return y0 + get_d(st->a[base + F_M1], slot) * (x - x0);
    return y0 + get_d(st->a[base + F_M1], slot) * dx
              + get_d(st->a[base + F_M2], slot) * (x - x0 - dx);
}

static double curve_inverse(StateCache *st, int base, Py_ssize_t slot, double y)
{
    double y0 = get_d(st->a[base + F_Y0], slot);
    if (y <= y0)
        return get_d(st->a[base + F_X0], slot);
    double knee_y = get_d(st->a[base + F_KY], slot);
    double knee_x;
    if (knee_y != knee_y) { /* NaN: memo invalid */
        double dx = get_d(st->a[base + F_DX], slot);
        knee_x = get_d(st->a[base + F_X0], slot) + dx;
        set_d(st->a[base + F_KX], slot, knee_x);
        knee_y = y0 + get_d(st->a[base + F_M1], slot) * dx;
        set_d(st->a[base + F_KY], slot, knee_y);
    }
    else {
        knee_x = get_d(st->a[base + F_KX], slot);
    }
    if (y <= knee_y)
        return get_d(st->a[base + F_X0], slot)
             + (y - y0) / get_d(st->a[base + F_M1], slot);
    double m2 = get_d(st->a[base + F_M2], slot);
    if (m2 == 0)
        return Py_HUGE_VAL;
    return knee_x + (y - knee_y) / m2;
}

static void curve_min_with(StateCache *st, int base, Py_ssize_t slot,
                           double sm1, double sd, double sm2,
                           double x, double y)
{
    double y_here = curve_value(st, base, slot, x);
    if (sm1 <= sm2) {
        if (y_here < y)
            return;
        set_d(st->a[base + F_X0], slot, x);
        set_d(st->a[base + F_Y0], slot, y);
        set_d(st->a[base + F_M1], slot, sm1);
        set_d(st->a[base + F_DX], slot, sd);
        set_d(st->a[base + F_M2], slot, sm2);
        set_d(st->a[base + F_KY], slot, Py_NAN);
        return;
    }
    if (y > y_here)
        return;
    double knee_x = get_d(st->a[base + F_X0], slot) + get_d(st->a[base + F_DX], slot);
    double knee_y = get_d(st->a[base + F_Y0], slot)
                  + get_d(st->a[base + F_M1], slot) * get_d(st->a[base + F_DX], slot);
    double dslope = sm1 - sm2;
    double cross = (knee_y - y + sm1 * x - sm2 * knee_x) / dslope;
    if (cross < x)
        cross = x;
    if (cross >= x + sd) {
        set_d(st->a[base + F_X0], slot, x);
        set_d(st->a[base + F_Y0], slot, y);
        set_d(st->a[base + F_M1], slot, sm1);
        set_d(st->a[base + F_DX], slot, sd);
        set_d(st->a[base + F_M2], slot, sm2);
        set_d(st->a[base + F_KY], slot, Py_NAN);
        return;
    }
    set_d(st->a[base + F_X0], slot, x);
    set_d(st->a[base + F_Y0], slot, y);
    set_d(st->a[base + F_M1], slot, sm1);
    set_d(st->a[base + F_DX], slot, cross - x);
    set_d(st->a[base + F_M2], slot, sm2);
    set_d(st->a[base + F_KY], slot, Py_NAN);
}

/* curve_set: RuntimeCurve.from_spec into the arrays + presence flag. */
static void curve_set(StateCache *st, int base, int on_index, Py_ssize_t slot,
                      double m1, double d, double m2, double x, double y)
{
    set_d(st->a[base + F_X0], slot, x);
    set_d(st->a[base + F_Y0], slot, y);
    set_d(st->a[base + F_M1], slot, m1);
    set_d(st->a[base + F_DX], slot, d);
    set_d(st->a[base + F_M2], slot, m2);
    set_d(st->a[base + F_KY], slot, Py_NAN);
    set_l(st->a[on_index], slot, 1);
}

/* ---- sift helpers (exact port of flatstate.heap_sift_up/_down) ---------- */
/*
 * The moving entry's boxed objects are held aside and parents/children
 * are shifted by raw pointer moves -- a pure permutation of the list
 * cells, so reference counts are untouched.
 */

static void sift_up(PyObject *keys, PyObject *seqs, PyObject *slots,
                    PyObject *pos, Py_ssize_t i)
{
    PyObject *key_o = PyList_GET_ITEM(keys, i);
    PyObject *seq_o = PyList_GET_ITEM(seqs, i);
    PyObject *slot_o = PyList_GET_ITEM(slots, i);
    double key = PyFloat_AS_DOUBLE(key_o);
    long seq = PyLong_AsLong(seq_o);
    while (i > 0) {
        Py_ssize_t pi = (i - 1) >> 1;
        PyObject *pk_o = PyList_GET_ITEM(keys, pi);
        double pk = PyFloat_AS_DOUBLE(pk_o);
        if (key < pk || (key == pk && seq < get_l(seqs, pi))) {
            PyList_SET_ITEM(keys, i, pk_o);
            PyList_SET_ITEM(seqs, i, PyList_GET_ITEM(seqs, pi));
            PyObject *moved = PyList_GET_ITEM(slots, pi);
            PyList_SET_ITEM(slots, i, moved);
            set_l(pos, PyLong_AsLong(moved), i);
            i = pi;
        }
        else {
            break;
        }
    }
    PyList_SET_ITEM(keys, i, key_o);
    PyList_SET_ITEM(seqs, i, seq_o);
    PyList_SET_ITEM(slots, i, slot_o);
    set_l(pos, PyLong_AsLong(slot_o), i);
}

static void sift_down(PyObject *keys, PyObject *seqs, PyObject *slots,
                      PyObject *pos, Py_ssize_t i)
{
    Py_ssize_t size = PyList_GET_SIZE(keys);
    PyObject *key_o = PyList_GET_ITEM(keys, i);
    PyObject *seq_o = PyList_GET_ITEM(seqs, i);
    PyObject *slot_o = PyList_GET_ITEM(slots, i);
    double key = PyFloat_AS_DOUBLE(key_o);
    long seq = PyLong_AsLong(seq_o);
    Py_ssize_t child = 2 * i + 1;
    while (child < size) {
        double ck = get_d(keys, child);
        Py_ssize_t right = child + 1;
        if (right < size) {
            double rk = get_d(keys, right);
            if (rk < ck || (rk == ck && get_l(seqs, right) < get_l(seqs, child))) {
                child = right;
                ck = rk;
            }
        }
        if (ck < key || (ck == key && get_l(seqs, child) < seq)) {
            PyList_SET_ITEM(keys, i, PyList_GET_ITEM(keys, child));
            PyList_SET_ITEM(seqs, i, PyList_GET_ITEM(seqs, child));
            PyObject *moved = PyList_GET_ITEM(slots, child);
            PyList_SET_ITEM(slots, i, moved);
            set_l(pos, PyLong_AsLong(moved), i);
            i = child;
            child = 2 * i + 1;
        }
        else {
            break;
        }
    }
    PyList_SET_ITEM(keys, i, key_o);
    PyList_SET_ITEM(seqs, i, seq_o);
    PyList_SET_ITEM(slots, i, slot_o);
    set_l(pos, PyLong_AsLong(slot_o), i);
}

/* Append (key, seq, slot) and sift up.  Mirrors the push half of
 * flatstate.heap_push2 / elig_insert. */
static int heap_append(PyObject *keys, PyObject *seqs, PyObject *slots,
                       PyObject *pos, double key, long seq, long slot)
{
    PyObject *key_o = PyFloat_FromDouble(key);
    PyObject *seq_o = PyLong_FromLong(seq);
    PyObject *slot_o = PyLong_FromLong(slot);
    if (key_o == NULL || seq_o == NULL || slot_o == NULL ||
        PyList_Append(keys, key_o) < 0 ||
        PyList_Append(seqs, seq_o) < 0 ||
        PyList_Append(slots, slot_o) < 0) {
        Py_XDECREF(key_o);
        Py_XDECREF(seq_o);
        Py_XDECREF(slot_o);
        return -1;
    }
    Py_DECREF(key_o);
    Py_DECREF(seq_o);
    Py_DECREF(slot_o);
    sift_up(keys, seqs, slots, pos, PyList_GET_SIZE(keys) - 1);
    return 0;
}

/* Remove entry ``i`` (pos for its slot already cleared) with the
 * swap-last rule.  Mirrors flatstate._eheap_delete / heap_remove2. */
static int heap_delete_at(PyObject *keys, PyObject *seqs, PyObject *slots,
                          PyObject *pos, Py_ssize_t i)
{
    PyObject *last_key, *last_seq, *last_slot;
    if (list_pop_last(keys, &last_key) < 0)
        return -1;
    if (list_pop_last(seqs, &last_seq) < 0) {
        Py_DECREF(last_key);
        return -1;
    }
    if (list_pop_last(slots, &last_slot) < 0) {
        Py_DECREF(last_key);
        Py_DECREF(last_seq);
        return -1;
    }
    if (i < PyList_GET_SIZE(keys)) {
        PyObject *old;
        old = PyList_GET_ITEM(keys, i);
        PyList_SET_ITEM(keys, i, last_key);
        Py_DECREF(old);
        old = PyList_GET_ITEM(seqs, i);
        PyList_SET_ITEM(seqs, i, last_seq);
        Py_DECREF(old);
        old = PyList_GET_ITEM(slots, i);
        PyList_SET_ITEM(slots, i, last_slot);
        Py_DECREF(old);
        long moved = PyLong_AsLong(last_slot);
        set_l(pos, moved, i);
        sift_up(keys, seqs, slots, pos, i);
        sift_down(keys, seqs, slots, pos, get_l(pos, moved));
    }
    else {
        Py_DECREF(last_key);
        Py_DECREF(last_seq);
        Py_DECREF(last_slot);
    }
    return 0;
}

/* ---- sibling-heap pair operations --------------------------------------- */

static int heap_push2(StateCache *st, long parent, long slot, double key)
{
    PyObject *keys = PyList_GET_ITEM(st->a[A_hmin_key], parent);
    PyObject *seqs = PyList_GET_ITEM(st->a[A_hmin_seq], parent);
    PyObject *slots = PyList_GET_ITEM(st->a[A_hmin_slot], parent);
    long seq = get_l(st->a[A_hmin_ctr], parent);
    set_l(st->a[A_hmin_ctr], parent, seq + 1);
    if (heap_append(keys, seqs, slots, st->a[A_hmin_pos], key, seq, slot) < 0)
        return -1;
    keys = PyList_GET_ITEM(st->a[A_hmax_key], parent);
    seqs = PyList_GET_ITEM(st->a[A_hmax_seq], parent);
    slots = PyList_GET_ITEM(st->a[A_hmax_slot], parent);
    seq = get_l(st->a[A_hmax_ctr], parent);
    set_l(st->a[A_hmax_ctr], parent, seq + 1);
    return heap_append(keys, seqs, slots, st->a[A_hmax_pos], -key, seq, slot);
}

static void heap_update_side(PyObject *keys, PyObject *seqs, PyObject *slots,
                             PyObject *pos, long slot, double key)
{
    Py_ssize_t i = get_l(pos, slot);
    double old = get_d(keys, i);
    set_d(keys, i, key);
    if (key < old)
        sift_up(keys, seqs, slots, pos, i);
    else
        sift_down(keys, seqs, slots, pos, i);
}

static void heap_update2(StateCache *st, long parent, long slot, double key)
{
    heap_update_side(PyList_GET_ITEM(st->a[A_hmin_key], parent),
                     PyList_GET_ITEM(st->a[A_hmin_seq], parent),
                     PyList_GET_ITEM(st->a[A_hmin_slot], parent),
                     st->a[A_hmin_pos], slot, key);
    heap_update_side(PyList_GET_ITEM(st->a[A_hmax_key], parent),
                     PyList_GET_ITEM(st->a[A_hmax_seq], parent),
                     PyList_GET_ITEM(st->a[A_hmax_slot], parent),
                     st->a[A_hmax_pos], slot, -key);
}

static int heap_remove2(StateCache *st, long parent, long slot)
{
    PyObject *pos = st->a[A_hmin_pos];
    Py_ssize_t i = get_l(pos, slot);
    set_l(pos, slot, -1);
    if (heap_delete_at(PyList_GET_ITEM(st->a[A_hmin_key], parent),
                       PyList_GET_ITEM(st->a[A_hmin_seq], parent),
                       PyList_GET_ITEM(st->a[A_hmin_slot], parent),
                       pos, i) < 0)
        return -1;
    pos = st->a[A_hmax_pos];
    i = get_l(pos, slot);
    set_l(pos, slot, -1);
    return heap_delete_at(PyList_GET_ITEM(st->a[A_hmax_key], parent),
                          PyList_GET_ITEM(st->a[A_hmax_seq], parent),
                          PyList_GET_ITEM(st->a[A_hmax_slot], parent),
                          pos, i);
}

/* ---- hot-path kernels --------------------------------------------------- */

static void activate_ls_impl(StateCache *st, long slot, long policy)
{
    PyObject *parent = st->a[A_parent];
    PyObject *nactive = st->a[A_nactive];
    long s = slot;
    while (get_l(parent, s) >= 0) {
        long p = get_l(parent, s);
        int parent_was_active = get_l(nactive, p) > 0;
        double pvt;
        if (!parent_was_active) {
            pvt = get_d(st->a[A_vt_watermark], p);
        }
        else {
            double vmin = get_d(PyList_GET_ITEM(st->a[A_hmin_key], p), 0);
            double vmax = -get_d(PyList_GET_ITEM(st->a[A_hmax_key], p), 0);
            if (policy == 1) /* VT_MIN */
                pvt = vmin;
            else if (policy == 2) /* VT_MAX */
                pvt = vmax;
            else
                pvt = (vmin + vmax) / 2.0;
        }
        double w = get_d(st->a[A_total_work], s);
        if (!get_l(st->a[A_vc_on], s)) {
            curve_set(st, CURVE_VC, A_vc_on, s,
                      get_d(st->a[A_ls_m1], s), get_d(st->a[A_ls_d], s),
                      get_d(st->a[A_ls_m2], s), pvt, w);
        }
        else {
            curve_min_with(st, CURVE_VC, s,
                           get_d(st->a[A_ls_m1], s), get_d(st->a[A_ls_d], s),
                           get_d(st->a[A_ls_m2], s), pvt, w);
        }
        double v = curve_inverse(st, CURVE_VC, s, w);
        set_d(st->a[A_vt], s, v);
        set_l(st->a[A_ls_active], s, 1);
        heap_push2(st, p, s, v);
        set_l(nactive, p, get_l(nactive, p) + 1);
        if (parent_was_active || get_l(parent, p) < 0)
            break;
        s = p;
    }
}

static void passivate_ls_impl(StateCache *st, long slot)
{
    PyObject *parent = st->a[A_parent];
    PyObject *nactive = st->a[A_nactive];
    long s = slot;
    while (get_l(parent, s) >= 0) {
        long p = get_l(parent, s);
        heap_remove2(st, p, s);
        set_l(nactive, p, get_l(nactive, p) - 1);
        double vs = get_d(st->a[A_vt], s);
        if (vs > get_d(st->a[A_vt_watermark], p))
            set_d(st->a[A_vt_watermark], p, vs);
        set_l(st->a[A_ls_active], s, 0);
        if (get_l(nactive, p) > 0 || get_l(parent, p) < 0)
            break;
        s = p;
    }
}

static PyObject *py_activate_ls(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "activate_ls(state, slot, policy)");
        return NULL;
    }
    StateCache *st = get_cache(args[0]);
    if (st == NULL)
        return NULL;
    activate_ls_impl(st, PyLong_AsLong(args[1]), PyLong_AsLong(args[2]));
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *py_passivate_ls(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "passivate_ls(state, slot)");
        return NULL;
    }
    StateCache *st = get_cache(args[0]);
    if (st == NULL)
        return NULL;
    passivate_ls_impl(st, PyLong_AsLong(args[1]));
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

static int activate_impl(StateCache *st, long slot, double now,
                         int rt_tracked, double head_size, long policy)
{
    double c = get_d(st->a[A_cumul_rt], slot);
    if (rt_tracked) {
        if (!get_l(st->a[A_dc_on], slot)) {
            curve_set(st, CURVE_DC, A_dc_on, slot,
                      get_d(st->a[A_rt_m1], slot), get_d(st->a[A_rt_d], slot),
                      get_d(st->a[A_rt_m2], slot), now, c);
            curve_set(st, CURVE_EC, A_ec_on, slot,
                      get_d(st->a[A_es_m1], slot), get_d(st->a[A_es_d], slot),
                      get_d(st->a[A_es_m2], slot), now, c);
        }
        else {
            curve_min_with(st, CURVE_DC, slot,
                           get_d(st->a[A_rt_m1], slot), get_d(st->a[A_rt_d], slot),
                           get_d(st->a[A_rt_m2], slot), now, c);
            curve_min_with(st, CURVE_EC, slot,
                           get_d(st->a[A_es_m1], slot), get_d(st->a[A_es_d], slot),
                           get_d(st->a[A_es_m2], slot), now, c);
        }
        set_d(st->a[A_eligible], slot, curve_inverse(st, CURVE_EC, slot, c));
        set_d(st->a[A_deadline], slot,
              curve_inverse(st, CURVE_DC, slot, c + head_size));
    }
    if (get_l(st->a[A_ulsp_on], slot)) {
        double w = get_d(st->a[A_total_work], slot);
        if (!get_l(st->a[A_ul_on], slot)) {
            curve_set(st, CURVE_UL, A_ul_on, slot,
                      get_d(st->a[A_ulsp_m1], slot), get_d(st->a[A_ulsp_d], slot),
                      get_d(st->a[A_ulsp_m2], slot), now, w);
        }
        else {
            curve_min_with(st, CURVE_UL, slot,
                           get_d(st->a[A_ulsp_m1], slot), get_d(st->a[A_ulsp_d], slot),
                           get_d(st->a[A_ulsp_m2], slot), now, w);
        }
        set_d(st->a[A_fit_time], slot, curve_inverse(st, CURVE_UL, slot, w));
    }
    if (get_l(st->a[A_ls_on], slot))
        activate_ls_impl(st, slot, policy);
    return PyErr_Occurred() ? -1 : 0;
}

static int serve_commit_impl(StateCache *st, long slot, double size,
                             int realtime, int rt_tracked, int backlogged,
                             double next_size)
{
    if (realtime) {
        set_d(st->a[A_cumul_rt], slot, get_d(st->a[A_cumul_rt], slot) + size);
        set_d(st->a[A_bytes_rt], slot, get_d(st->a[A_bytes_rt], slot) + size);
    }
    else {
        set_d(st->a[A_bytes_ls], slot, get_d(st->a[A_bytes_ls], slot) + size);
    }
    PyObject *total_work = st->a[A_total_work];
    if (get_l(st->a[A_ls_on], slot)) {
        PyObject *parent = st->a[A_parent];
        PyObject *nactive = st->a[A_nactive];
        long s = slot;
        int dying = !backlogged;
        for (;;) {
            long p = get_l(parent, s);
            if (p < 0) {
                set_d(total_work, s, get_d(total_work, s) + size);
                break;
            }
            double w = get_d(total_work, s) + size;
            set_d(total_work, s, w);
            double v = curve_inverse(st, CURVE_VC, s, w);
            set_d(st->a[A_vt], s, v);
            if (dying)
                dying = get_l(nactive, p) == 1 && get_l(parent, p) >= 0;
            else
                heap_update2(st, p, s, v);
            s = p;
        }
    }
    else {
        set_d(total_work, slot, get_d(total_work, slot) + size);
    }
    if (get_l(st->a[A_ul_on], slot)) {
        set_d(st->a[A_fit_time], slot,
              curve_inverse(st, CURVE_UL, slot, get_d(total_work, slot)));
    }
    if (backlogged) {
        if (rt_tracked) {
            double c = get_d(st->a[A_cumul_rt], slot);
            if (realtime)
                set_d(st->a[A_eligible], slot, curve_inverse(st, CURVE_EC, slot, c));
            set_d(st->a[A_deadline], slot,
                  curve_inverse(st, CURVE_DC, slot, c + next_size));
        }
    }
    else if (get_l(st->a[A_ls_on], slot)) {
        passivate_ls_impl(st, slot);
    }
    return PyErr_Occurred() ? -1 : 0;
}

static PyObject *py_ls_descend(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "ls_descend(state, root_slot)");
        return NULL;
    }
    StateCache *st = get_cache(args[0]);
    if (st == NULL)
        return NULL;
    long s = PyLong_AsLong(args[1]);
    PyObject *nactive = st->a[A_nactive];
    PyObject *hmin_slot = st->a[A_hmin_slot];
    while (get_l(nactive, s) > 0)
        s = get_l(PyList_GET_ITEM(hmin_slot, s), 0);
    if (PyErr_Occurred())
        return NULL;
    return PyLong_FromLong(s);
}

/* ---- flat eligible set -------------------------------------------------- */

static long get_ctr(PyObject *state, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(state, name);
    if (v == NULL)
        return -1;
    long out = PyLong_AsLong(v);
    Py_DECREF(v);
    return out;
}

static int set_ctr(PyObject *state, PyObject *name, long v)
{
    PyObject *boxed = PyLong_FromLong(v);
    if (boxed == NULL)
        return -1;
    int rc = PyObject_SetAttr(state, name, boxed);
    Py_DECREF(boxed);
    return rc;
}

static int elig_insert_impl(PyObject *state, StateCache *st, long slot,
                            double eligible, double deadline)
{
    if (get_l(st->a[A_efut_pos], slot) != -1 ||
        get_l(st->a[A_erdy_pos], slot) != -1) {
        PyErr_Format(PyExc_ValueError, "slot already present: %ld", slot);
        return -1;
    }
    set_d(st->a[A_req_e], slot, eligible);
    set_d(st->a[A_req_d], slot, deadline);
    long seq = get_ctr(state, str_efut_ctr);
    if (seq < 0 && PyErr_Occurred())
        return -1;
    if (set_ctr(state, str_efut_ctr, seq + 1) < 0)
        return -1;
    return heap_append(st->a[A_efut_key], st->a[A_efut_seq], st->a[A_efut_slot],
                       st->a[A_efut_pos], eligible, seq, slot);
}

static int elig_remove_impl(PyObject *state, StateCache *st, long slot)
{
    long i = get_l(st->a[A_efut_pos], slot);
    if (i >= 0) {
        set_l(st->a[A_efut_pos], slot, -1);
        return heap_delete_at(st->a[A_efut_key], st->a[A_efut_seq],
                              st->a[A_efut_slot], st->a[A_efut_pos], i);
    }
    i = get_l(st->a[A_erdy_pos], slot);
    if (i < 0) {
        PyErr_Format(PyExc_KeyError, "%ld", slot);
        return -1;
    }
    set_l(st->a[A_erdy_pos], slot, -1);
    return heap_delete_at(st->a[A_erdy_key], st->a[A_erdy_seq],
                          st->a[A_erdy_slot], st->a[A_erdy_pos], i);
}

static PyObject *py_elig_insert(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "elig_insert(state, slot, eligible, deadline)");
        return NULL;
    }
    StateCache *st = get_cache(args[0]);
    if (st == NULL)
        return NULL;
    long slot = PyLong_AsLong(args[1]);
    double eligible = PyFloat_AsDouble(args[2]);
    double deadline = PyFloat_AsDouble(args[3]);
    if (PyErr_Occurred())
        return NULL;
    if (elig_insert_impl(args[0], st, slot, eligible, deadline) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *py_elig_remove(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "elig_remove(state, slot)");
        return NULL;
    }
    StateCache *st = get_cache(args[0]);
    if (st == NULL)
        return NULL;
    long slot = PyLong_AsLong(args[1]);
    if (PyErr_Occurred())
        return NULL;
    if (elig_remove_impl(args[0], st, slot) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *py_elig_update(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "elig_update(state, slot, eligible, deadline)");
        return NULL;
    }
    StateCache *st = get_cache(args[0]);
    if (st == NULL)
        return NULL;
    long slot = PyLong_AsLong(args[1]);
    double eligible = PyFloat_AsDouble(args[2]);
    double deadline = PyFloat_AsDouble(args[3]);
    if (PyErr_Occurred())
        return NULL;
    if (elig_remove_impl(args[0], st, slot) < 0)
        return NULL;
    if (elig_insert_impl(args[0], st, slot, eligible, deadline) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *py_elig_query(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "elig_query(state, now)");
        return NULL;
    }
    StateCache *st = get_cache(args[0]);
    if (st == NULL)
        return NULL;
    double now = PyFloat_AsDouble(args[1]);
    if (PyErr_Occurred())
        return NULL;
    PyObject *fkeys = st->a[A_efut_key];
    while (PyList_GET_SIZE(fkeys) > 0 && get_d(fkeys, 0) <= now) {
        long slot = get_l(st->a[A_efut_slot], 0);
        set_l(st->a[A_efut_pos], slot, -1);
        if (heap_delete_at(fkeys, st->a[A_efut_seq], st->a[A_efut_slot],
                           st->a[A_efut_pos], 0) < 0)
            return NULL;
        long seq = get_ctr(args[0], str_erdy_ctr);
        if (seq < 0 && PyErr_Occurred())
            return NULL;
        if (set_ctr(args[0], str_erdy_ctr, seq + 1) < 0)
            return NULL;
        if (heap_append(st->a[A_erdy_key], st->a[A_erdy_seq], st->a[A_erdy_slot],
                        st->a[A_erdy_pos], get_d(st->a[A_req_d], slot),
                        seq, slot) < 0)
            return NULL;
    }
    if (PyList_GET_SIZE(st->a[A_erdy_key]) == 0)
        return PyLong_FromLong(-1);
    return PyLong_FromLong(get_l(st->a[A_erdy_slot], 0));
}

/* Exact port of flatstate.elig_requeue: the calendar-style round trip
 * collapsed to one in-place ready-heap re-key when the new eligible time
 * is already due. */
static int elig_requeue_impl(PyObject *state, StateCache *st, long slot,
                             double eligible, double deadline, double now)
{
    if (eligible <= now) {
        long i = get_l(st->a[A_erdy_pos], slot);
        if (i >= 0) {
            set_d(st->a[A_req_e], slot, eligible);
            set_d(st->a[A_req_d], slot, deadline);
            long seq = get_ctr(state, str_erdy_ctr);
            if (seq < 0 && PyErr_Occurred())
                return -1;
            if (set_ctr(state, str_erdy_ctr, seq + 1) < 0)
                return -1;
            PyObject *keys = st->a[A_erdy_key];
            PyObject *seqs = st->a[A_erdy_seq];
            PyObject *slots = st->a[A_erdy_slot];
            double old = get_d(keys, i);
            if (set_d(keys, i, deadline) < 0 || set_l(seqs, i, seq) < 0)
                return -1;
            /* The fresh seq is the largest in the heap: a smaller key can
             * only rise, an equal-or-larger key can only sink. */
            if (deadline < old)
                sift_up(keys, seqs, slots, st->a[A_erdy_pos], i);
            else
                sift_down(keys, seqs, slots, st->a[A_erdy_pos], i);
            return PyErr_Occurred() ? -1 : 0;
        }
    }
    if (elig_remove_impl(state, st, slot) < 0)
        return -1;
    return elig_insert_impl(state, st, slot, eligible, deadline);
}

static PyObject *py_elig_requeue(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "elig_requeue(state, slot, eligible, deadline, now)");
        return NULL;
    }
    StateCache *st = get_cache(args[0]);
    if (st == NULL)
        return NULL;
    long slot = PyLong_AsLong(args[1]);
    double eligible = PyFloat_AsDouble(args[2]);
    double deadline = PyFloat_AsDouble(args[3]);
    double now = PyFloat_AsDouble(args[4]);
    if (PyErr_Occurred())
        return NULL;
    if (elig_requeue_impl(args[0], st, slot, eligible, deadline, now) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- fused hot-path steps (serve_commit/activate + eligible set) -------- */

static PyObject *py_serve_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError,
                        "serve_step(state, slot, size, realtime, rt_tracked, "
                        "backlogged, next_size, now)");
        return NULL;
    }
    StateCache *st = get_cache(args[0]);
    if (st == NULL)
        return NULL;
    long slot = PyLong_AsLong(args[1]);
    double size = PyFloat_AsDouble(args[2]);
    int realtime = PyObject_IsTrue(args[3]);
    int rt_tracked = PyObject_IsTrue(args[4]);
    int backlogged = PyObject_IsTrue(args[5]);
    double next_size = PyFloat_AsDouble(args[6]);
    double now = PyFloat_AsDouble(args[7]);
    if (PyErr_Occurred())
        return NULL;
    if (serve_commit_impl(st, slot, size, realtime, rt_tracked, backlogged,
                          next_size) < 0)
        return NULL;
    if (rt_tracked) {
        if (backlogged) {
            if (elig_requeue_impl(args[0], st, slot,
                                  get_d(st->a[A_eligible], slot),
                                  get_d(st->a[A_deadline], slot), now) < 0)
                return NULL;
        }
        else if (elig_remove_impl(args[0], st, slot) < 0) {
            return NULL;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *py_activate_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "activate_step(state, slot, now, rt_tracked, "
                        "head_size, policy)");
        return NULL;
    }
    StateCache *st = get_cache(args[0]);
    if (st == NULL)
        return NULL;
    long slot = PyLong_AsLong(args[1]);
    double now = PyFloat_AsDouble(args[2]);
    int rt_tracked = PyObject_IsTrue(args[3]);
    double head_size = PyFloat_AsDouble(args[4]);
    long policy = PyLong_AsLong(args[5]);
    if (PyErr_Occurred())
        return NULL;
    if (activate_impl(st, slot, now, rt_tracked, head_size, policy) < 0)
        return NULL;
    if (rt_tracked &&
        elig_insert_impl(args[0], st, slot, get_d(st->a[A_eligible], slot),
                         get_d(st->a[A_deadline], slot)) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- module ------------------------------------------------------------- */

static PyMethodDef methods[] = {
    {"serve_step", (PyCFunction)(void (*)(void))py_serve_step, METH_FASTCALL, NULL},
    {"activate_step", (PyCFunction)(void (*)(void))py_activate_step, METH_FASTCALL, NULL},
    {"activate_ls", (PyCFunction)(void (*)(void))py_activate_ls, METH_FASTCALL, NULL},
    {"passivate_ls", (PyCFunction)(void (*)(void))py_passivate_ls, METH_FASTCALL, NULL},
    {"ls_descend", (PyCFunction)(void (*)(void))py_ls_descend, METH_FASTCALL, NULL},
    {"elig_insert", (PyCFunction)(void (*)(void))py_elig_insert, METH_FASTCALL, NULL},
    {"elig_remove", (PyCFunction)(void (*)(void))py_elig_remove, METH_FASTCALL, NULL},
    {"elig_update", (PyCFunction)(void (*)(void))py_elig_update, METH_FASTCALL, NULL},
    {"elig_requeue", (PyCFunction)(void (*)(void))py_elig_requeue, METH_FASTCALL, NULL},
    {"elig_query", (PyCFunction)(void (*)(void))py_elig_query, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "fastpath_c",
    "Compiled H-FSC hot-path kernels (see repro/core/flatstate.py).",
    -1, methods,
};

PyMODINIT_FUNC PyInit_fastpath_c(void)
{
    str_ccache = PyUnicode_InternFromString("_ccache");
    str_efut_ctr = PyUnicode_InternFromString("efut_ctr");
    str_erdy_ctr = PyUnicode_InternFromString("erdy_ctr");
    if (str_ccache == NULL || str_efut_ctr == NULL || str_erdy_ctr == NULL)
        return NULL;
    return PyModule_Create(&moduledef);
}
