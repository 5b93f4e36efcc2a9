/*
 * Compiled memory-hierarchy walk: the bodies of
 * MemorySystem.demand_lines / MemorySystem.prefetch_lines and the
 * same-cycle run split and burst-budget accounting of
 * PrefetchPort.prefetch_many.
 *
 * The kernel keeps no state of its own. It works in place on the
 * containers the Python objects already own, exactly as the pure-Python
 * batch kernels in hierarchy.py do:
 *
 *   - each cache level's per-set tag dicts of CacheLine slot objects,
 *     kept in LRU insertion order (Cache.hot_state);
 *   - the L2 MSHR file's (ready, line) heap and in-flight dict
 *     (MSHRFile.hot_state), sifted here with heapq's algorithm, so the
 *     heap layout matches what heapq would have produced;
 *   - the pending-prefetch set and the statistics records.
 *
 * The scalars the walk updates per line (each cache's _use_counter, the
 * DRAM bus's _bus_free_at, the MSHR file's structural_stalls and
 * peak_occupancy) are mirrored in C while a walk runs. They are loaded
 * on entry, written back before every Python callback (the prefetcher
 * demand hook, CPU-traffic injection, prefetch_lines) and on exit, and
 * reloaded after each callback: the re-entrancy contract that
 * Cache.hot_state and MSHRFile.hot_state document. Additive counters
 * (hits, misses, traffic, evictions) are accumulated in locals and
 * folded once per call, as the Python kernels fold them.
 *
 * Built and loaded by kernel.py; when that fails the Python kernels run
 * instead, with identical results.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <string.h>

typedef long long i64;

/* Interned attribute names. */
static PyObject *s_use_counter, *s_evictions, *s_prefetch_evicted_unused;
static PyObject *s_bus_free_at, *s_busy_cycles, *s_transfers,
    *s_bytes_transferred;
static PyObject *s_structural_stalls, *s_peak_occupancy;
static PyObject *s_cpu_last_inject, *s_inject_cpu_traffic;
static PyObject *s_demand_accesses, *s_demand_hits, *s_demand_inflight_hits,
    *s_demand_misses;
static PyObject *s_useful, *s_late, *s_issued, *s_issued_lines_off_chip;
static PyObject *s_nsb_to_npu_bytes, *s_l2_to_npu_bytes,
    *s_off_chip_demand_bytes, *s_off_chip_prefetch_bytes;
static PyObject *s_mem, *s_prefetch_lines, *s_burst_now, *s_burst_used,
    *s_burst_budget, *s_dropped_over_budget;

/* -- Python int helpers ----------------------------------------------- */

static int
to_i64(PyObject *o, i64 *out)
{
    int overflow;
    i64 v = PyLong_AsLongLongAndOverflow(o, &overflow);
    if (overflow) {
        PyErr_SetString(PyExc_OverflowError,
                        "memory walk value does not fit in 64 bits");
        return -1;
    }
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static int
get_i64(PyObject *obj, PyObject *name, i64 *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    int rc = to_i64(v, out);
    Py_DECREF(v);
    return rc;
}

static int
set_i64(PyObject *obj, PyObject *name, i64 value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

/* obj.name += delta, skipped when delta is 0. */
static int
add_i64(PyObject *obj, PyObject *name, i64 delta)
{
    if (delta == 0)
        return 0;
    PyObject *cur = PyObject_GetAttr(obj, name);
    if (cur == NULL)
        return -1;
    PyObject *d = PyLong_FromLongLong(delta);
    if (d == NULL) {
        Py_DECREF(cur);
        return -1;
    }
    PyObject *sum = PyNumber_InPlaceAdd(cur, d);
    Py_DECREF(cur);
    Py_DECREF(d);
    if (sum == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, sum);
    Py_DECREF(sum);
    return rc;
}

/* -- __slots__ access ------------------------------------------------- */

/* CacheLine and AccessResult are plain slots dataclasses; their fields
 * are read and written at the member offsets, and new instances are
 * allocated and filled directly (their __init__ only assigns fields). */
#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

static int
slot_offset(PyTypeObject *type, const char *name, Py_ssize_t *out)
{
    PyObject *descr = PyObject_GetAttrString((PyObject *)type, name);
    if (descr == NULL)
        return -1;
    int ok = Py_IS_TYPE(descr, &PyMemberDescr_Type) &&
             ((PyMemberDescrObject *)descr)->d_member->type == T_OBJECT_EX;
    if (ok)
        *out = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    if (!ok) {
        PyErr_Format(PyExc_TypeError, "%s.%s is not a __slots__ field",
                     type->tp_name, name);
        return -1;
    }
    return 0;
}

/* Borrowed slot value; NULL with AttributeError when unset. */
static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t off)
{
    PyObject *v = SLOT(obj, off);
    if (v == NULL)
        PyErr_SetString(PyExc_AttributeError, "unset slot in memory walk");
    return v;
}

/* Store a new reference (stolen) into a slot. */
static inline void
slot_put(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject *old = SLOT(obj, off);
    SLOT(obj, off) = value;
    Py_XDECREF(old);
}

/* -- the walk context ------------------------------------------------- */

typedef struct {
    PyObject *cache;    /* the Cache */
    PyObject *sets;     /* its list of per-set tag dicts */
    int line_shift;
    int tag_shift;
    i64 set_mask;
    Py_ssize_t assoc;
    i64 lat;            /* hit latency */
    i64 use;            /* mirror of cache._use_counter */
    i64 use_synced;
} Level;

/* Evictions counted by one walk call, folded into the Cache on exit.
 * Kept per call: a hook may run a nested walk mid-batch. */
typedef struct {
    i64 evictions;
    i64 pf_evicted;
} Evicted;

typedef struct {
    PyObject_HEAD
    Level l2;
    Level nsb;
    int has_nsb;
    PyObject *mshr;
    PyObject *heap;         /* list of (ready, line) tuples */
    PyObject *inflight;     /* dict line -> ready */
    Py_ssize_t mshr_cap;
    i64 stalls, stalls_synced;
    i64 peak, peak_synced;
    PyObject *dram;
    i64 bus, bus_synced;
    i64 dram_lat, service, pf_penalty, line_bytes;
    PyObject *pending;      /* set of lines with an uncredited prefetch */
    PyObject *st_nsb, *st_l2, *st_pf, *traffic;
    PyObject *cpu_mem;      /* the MemorySystem when CPU traffic is on */
    i64 cpu_rate;           /* CPU lines per kcycle */
    i64 cpu_last;           /* mirror of mem._cpu_last_inject */
    PyTypeObject *line_type;
    Py_ssize_t o_tag, o_ready, o_bypf, o_touched, o_last;
    PyTypeObject *result_type;
    Py_ssize_t o_complete, o_level, o_waspf, o_offchip;
    PyObject *lvl_nsb, *lvl_l2, *lvl_inflight, *lvl_dram;
} Walk;

static int
level_init(Level *lv, PyObject *cache, PyObject *hot, PyObject *lat)
{
    Py_ssize_t n_sets;
    i64 shift, tshift, assoc;
    if (!PyTuple_Check(hot) || PyTuple_GET_SIZE(hot) != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "cache hot state must be a 5-tuple");
        return -1;
    }
    PyObject *sets = PyTuple_GET_ITEM(hot, 0);
    if (!PyList_CheckExact(sets)) {
        PyErr_SetString(PyExc_TypeError, "cache sets must be a list");
        return -1;
    }
    if (to_i64(PyTuple_GET_ITEM(hot, 1), &shift) < 0 ||
        to_i64(PyTuple_GET_ITEM(hot, 2), &lv->set_mask) < 0 ||
        to_i64(PyTuple_GET_ITEM(hot, 3), &tshift) < 0 ||
        to_i64(PyTuple_GET_ITEM(hot, 4), &assoc) < 0 ||
        to_i64(lat, &lv->lat) < 0)
        return -1;
    n_sets = PyList_GET_SIZE(sets);
    if (lv->set_mask + 1 != n_sets || shift < 0 || shift > 62 ||
        tshift < 0 || tshift > 62 || assoc < 1) {
        PyErr_SetString(PyExc_ValueError, "inconsistent cache geometry");
        return -1;
    }
    for (Py_ssize_t i = 0; i < n_sets; i++) {
        if (!PyDict_CheckExact(PyList_GET_ITEM(sets, i))) {
            PyErr_SetString(PyExc_TypeError, "cache sets must be dicts");
            return -1;
        }
    }
    lv->line_shift = (int)shift;
    lv->tag_shift = (int)tshift;
    lv->assoc = (Py_ssize_t)assoc;
    Py_INCREF(cache);
    lv->cache = cache;
    Py_INCREF(sets);
    lv->sets = sets;
    return 0;
}

/* -- mirrored scalars ------------------------------------------------- */

static int
sync_in(Walk *w)
{
    if (get_i64(w->l2.cache, s_use_counter, &w->l2.use) < 0)
        return -1;
    w->l2.use_synced = w->l2.use;
    if (w->has_nsb) {
        if (get_i64(w->nsb.cache, s_use_counter, &w->nsb.use) < 0)
            return -1;
        w->nsb.use_synced = w->nsb.use;
    }
    if (get_i64(w->dram, s_bus_free_at, &w->bus) < 0 ||
        get_i64(w->mshr, s_structural_stalls, &w->stalls) < 0 ||
        get_i64(w->mshr, s_peak_occupancy, &w->peak) < 0)
        return -1;
    w->bus_synced = w->bus;
    w->stalls_synced = w->stalls;
    w->peak_synced = w->peak;
    if (w->cpu_mem != NULL &&
        get_i64(w->cpu_mem, s_cpu_last_inject, &w->cpu_last) < 0)
        return -1;
    return 0;
}

static int
sync_out(Walk *w)
{
#define PUT(obj, name, field)                                             \
    if (w->field != w->field##_synced) {                                  \
        if (set_i64(obj, name, w->field) < 0)                             \
            return -1;                                                    \
        w->field##_synced = w->field;                                     \
    }
    if (w->l2.use != w->l2.use_synced) {
        if (set_i64(w->l2.cache, s_use_counter, w->l2.use) < 0)
            return -1;
        w->l2.use_synced = w->l2.use;
    }
    if (w->has_nsb && w->nsb.use != w->nsb.use_synced) {
        if (set_i64(w->nsb.cache, s_use_counter, w->nsb.use) < 0)
            return -1;
        w->nsb.use_synced = w->nsb.use;
    }
    PUT(w->dram, s_bus_free_at, bus)
    PUT(w->mshr, s_structural_stalls, stalls)
    PUT(w->mshr, s_peak_occupancy, peak)
#undef PUT
    return 0;
}

/* sync_out on an error path, keeping the pending exception. */
static void
sync_out_on_error(Walk *w)
{
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    if (sync_out(w) < 0)
        PyErr_Clear();
    PyErr_Restore(type, value, tb);
}

/* -- the MSHR heap (heapq's algorithm on (ready, line) tuples) -------- */

static int
heap_item(PyObject *item, i64 *ready, i64 *line)
{
    if (!PyTuple_CheckExact(item) || PyTuple_GET_SIZE(item) != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "MSHR heap entries must be (ready, line) tuples");
        return -1;
    }
    if (to_i64(PyTuple_GET_ITEM(item, 0), ready) < 0)
        return -1;
    if (line != NULL && to_i64(PyTuple_GET_ITEM(item, 1), line) < 0)
        return -1;
    return 0;
}

/* a < b for (int, int) tuples, as tuple comparison orders them: -1 on
 * error, else 0/1. The lines are only read on a tie of ready times. */
static int
item_lt(PyObject *a, PyObject *b)
{
    i64 a0, a1, b0, b1;
    if (heap_item(a, &a0, NULL) < 0 || heap_item(b, &b0, NULL) < 0)
        return -1;
    if (a0 != b0)
        return a0 < b0;
    if (to_i64(PyTuple_GET_ITEM(a, 1), &a1) < 0 ||
        to_i64(PyTuple_GET_ITEM(b, 1), &b1) < 0)
        return -1;
    return a1 < b1;
}

static int
siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject **arr = ((PyListObject *)heap)->ob_item;
    PyObject *newitem = arr[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = arr[parentpos];
        int cmp = item_lt(newitem, parent);
        if (cmp < 0)
            return -1;
        if (cmp == 0)
            break;
        arr[parentpos] = newitem;
        arr[pos] = parent;
        pos = parentpos;
    }
    return 0;
}

static int
siftup(PyObject *heap, Py_ssize_t pos)
{
    PyObject **arr = ((PyListObject *)heap)->ob_item;
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    Py_ssize_t limit = endpos >> 1;
    while (pos < limit) {
        Py_ssize_t childpos = 2 * pos + 1;
        if (childpos + 1 < endpos) {
            int cmp = item_lt(arr[childpos], arr[childpos + 1]);
            if (cmp < 0)
                return -1;
            childpos += ((unsigned)cmp ^ 1);
        }
        PyObject *tmp = arr[childpos];
        arr[childpos] = arr[pos];
        arr[pos] = tmp;
        pos = childpos;
    }
    return siftdown(heap, startpos, pos);
}

static int
heap_push(PyObject *heap, PyObject *ready_obj, PyObject *line)
{
    PyObject *item = PyTuple_Pack(2, ready_obj, line);
    if (item == NULL)
        return -1;
    int rc = PyList_Append(heap, item);
    Py_DECREF(item);
    if (rc < 0)
        return -1;
    return siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* New reference to the popped smallest item. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n - 1 == 0)
        return last;
    PyObject *top = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);
    if (siftup(heap, 0) < 0) {
        Py_DECREF(top);
        return NULL;
    }
    return top;
}

/* Lazy retire: pop every fill ready at or before `now`, dropping its
 * in-flight entry unless a later fill of the same line replaced it. */
static int
mshr_retire(Walk *w, i64 now)
{
    PyObject *heap = w->heap;
    while (PyList_GET_SIZE(heap) > 0) {
        i64 ready;
        if (heap_item(PyList_GET_ITEM(heap, 0), &ready, NULL) < 0)
            return -1;
        if (ready > now)
            break;
        PyObject *item = heap_pop(heap);
        if (item == NULL)
            return -1;
        PyObject *line = PyTuple_GET_ITEM(item, 1);
        PyObject *cur = PyDict_GetItemWithError(w->inflight, line);
        int rc = 0;
        if (cur != NULL) {
            Py_INCREF(cur);
            int eq = PyObject_RichCompareBool(cur, PyTuple_GET_ITEM(item, 0),
                                              Py_EQ);
            Py_DECREF(cur);
            if (eq < 0 || (eq && PyDict_DelItem(w->inflight, line) < 0))
                rc = -1;
        }
        else if (PyErr_Occurred()) {
            rc = -1;
        }
        Py_DECREF(item);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* Earliest cycle at which an MSHR entry is free (retiring as it goes),
 * as MSHRFile.earliest_free_slot followed by the retire at the
 * allocation start. Sets *full when the file was full at `now`. */
static int
mshr_slot(Walk *w, i64 now, i64 *start, int *full)
{
    if (mshr_retire(w, now) < 0)
        return -1;
    if (PyDict_GET_SIZE(w->inflight) < w->mshr_cap) {
        *full = 0;
        *start = now;
        return 0;
    }
    *full = 1;
    w->stalls += 1;
    if (PyList_GET_SIZE(w->heap) == 0) {
        PyErr_SetString(PyExc_RuntimeError, "full MSHR file with empty heap");
        return -1;
    }
    if (heap_item(PyList_GET_ITEM(w->heap, 0), start, NULL) < 0)
        return -1;
    return mshr_retire(w, *start);
}

/* Record a new outstanding fill of `line` ready at `ready`. */
static int
mshr_allocate(Walk *w, PyObject *line, PyObject *ready_obj)
{
    if (PyDict_SetItem(w->inflight, line, ready_obj) < 0)
        return -1;
    if (heap_push(w->heap, ready_obj, line) < 0)
        return -1;
    Py_ssize_t occ = PyDict_GET_SIZE(w->inflight);
    if (occ > w->peak)
        w->peak = occ;
    return 0;
}

/* -- cache lines ------------------------------------------------------ */

static PyObject *
new_line(Walk *w, PyObject *tag, PyObject *ready, int by_prefetch, i64 use)
{
    PyObject *last = PyLong_FromLongLong(use);
    if (last == NULL)
        return NULL;
    PyObject *line = w->line_type->tp_alloc(w->line_type, 0);
    if (line == NULL) {
        Py_DECREF(last);
        return NULL;
    }
    PyObject *bypf = by_prefetch ? Py_True : Py_False;
    PyObject *touched = by_prefetch ? Py_False : Py_True;
    Py_INCREF(tag);
    Py_INCREF(ready);
    Py_INCREF(bypf);
    Py_INCREF(touched);
    SLOT(line, w->o_tag) = tag;
    SLOT(line, w->o_ready) = ready;
    SLOT(line, w->o_bypf) = bypf;
    SLOT(line, w->o_touched) = touched;
    SLOT(line, w->o_last) = last;
    return line;
}

/* Fill `tag` into a set the caller proved it absent from, evicting the
 * front (least recently used) entry of a full set. */
static int
fill(Walk *w, Level *lv, Evicted *ev, PyObject *set, PyObject *tag,
     PyObject *ready, int by_prefetch)
{
    if (PyDict_GET_SIZE(set) >= lv->assoc) {
        Py_ssize_t pos = 0;
        PyObject *key, *victim;
        if (!PyDict_Next(set, &pos, &key, &victim)) {
            PyErr_SetString(PyExc_RuntimeError, "empty full cache set");
            return -1;
        }
        if (!Py_IS_TYPE(victim, w->line_type)) {
            PyErr_SetString(PyExc_TypeError, "foreign cache line");
            return -1;
        }
        Py_INCREF(key);
        Py_INCREF(victim);
        int rc = PyDict_DelItem(set, key);
        Py_DECREF(key);
        if (rc == 0) {
            ev->evictions += 1;
            PyObject *bypf = slot_get(victim, w->o_bypf);
            PyObject *touched = bypf ? slot_get(victim, w->o_touched) : NULL;
            int a = touched ? PyObject_IsTrue(bypf) : -1;
            int b = a > 0 ? PyObject_IsTrue(touched) : 0;
            if (a < 0 || b < 0)
                rc = -1;
            else if (a && !b)
                ev->pf_evicted += 1;
        }
        Py_DECREF(victim);
        if (rc < 0)
            return -1;
    }
    lv->use += 1;
    PyObject *line = new_line(w, tag, ready, by_prefetch, lv->use);
    if (line == NULL)
        return -1;
    int rc = PyDict_SetItem(set, tag, line);
    Py_DECREF(line);
    return rc;
}

/* Recency touch of a resident line: fresh last_use, move to the back. */
static int
touch(Level *lv, Walk *w, PyObject *set, PyObject *tag, PyObject *line)
{
    lv->use += 1;
    PyObject *last = PyLong_FromLongLong(lv->use);
    if (last == NULL)
        return -1;
    slot_put(line, w->o_last, last);
    if (PyDict_DelItem(set, tag) < 0)
        return -1;
    return PyDict_SetItem(set, tag, line);
}

/* A demand access to a resident line: recency touch, demand_touched,
 * and the pending-prefetch credit. Sets *ready and *was_pf. */
static int
demand_touch(Walk *w, Level *lv, PyObject *set, PyObject *tag,
             PyObject *cline, PyObject *line_obj, i64 *ready, int *was_pf)
{
    if (!Py_IS_TYPE(cline, w->line_type)) {
        PyErr_SetString(PyExc_TypeError, "foreign cache line");
        return -1;
    }
    Py_INCREF(cline);
    PyObject *r = slot_get(cline, w->o_ready);
    int rc = 0;
    if (r == NULL || to_i64(r, ready) < 0 ||
        touch(lv, w, set, tag, cline) < 0)
        rc = -1;
    if (rc == 0)
        slot_put(cline, w->o_touched, Py_NewRef(Py_True));
    Py_DECREF(cline);
    if (rc == 0 && (*was_pf = PySet_Discard(w->pending, line_obj)) < 0)
        rc = -1;
    return rc;
}

static inline PyObject *
set_of(Level *lv, i64 line)
{
    return PyList_GET_ITEM(lv->sets, (line >> lv->line_shift) & lv->set_mask);
}

static PyObject *
new_result(Walk *w, i64 complete, PyObject *level, int was_pf, int off_chip)
{
    PyObject *c = PyLong_FromLongLong(complete);
    if (c == NULL)
        return NULL;
    PyObject *r = w->result_type->tp_alloc(w->result_type, 0);
    if (r == NULL) {
        Py_DECREF(c);
        return NULL;
    }
    PyObject *pf = was_pf ? Py_True : Py_False;
    PyObject *oc = off_chip ? Py_True : Py_False;
    Py_INCREF(level);
    Py_INCREF(pf);
    Py_INCREF(oc);
    SLOT(r, w->o_complete) = c;
    SLOT(r, w->o_level) = level;
    SLOT(r, w->o_waspf) = pf;
    SLOT(r, w->o_offchip) = oc;
    return r;
}

/* -- callbacks -------------------------------------------------------- */

/* mem._inject_cpu_traffic(at) when it would inject anything: the same
 * early-return test as the Python method, so skipped calls are exactly
 * the ones that would have had no effect. */
static int
maybe_inject(Walk *w, i64 at)
{
    if (at <= w->cpu_last || (at - w->cpu_last) * w->cpu_rate / 1000 <= 0)
        return 0;
    if (sync_out(w) < 0)
        return -1;
    PyObject *now = PyLong_FromLongLong(at);
    if (now == NULL)
        return -1;
    PyObject *r = PyObject_CallMethodOneArg(w->cpu_mem, s_inject_cpu_traffic,
                                            now);
    Py_DECREF(now);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return sync_in(w);
}

static int
call_hook(Walk *w, PyObject *hook, i64 at, PyObject *sid, PyObject *line,
          PyObject *idx, i64 complete, PyObject *level, int was_pf,
          int off_chip)
{
    if (sync_out(w) < 0)
        return -1;
    PyObject *result = new_result(w, complete, level, was_pf, off_chip);
    if (result == NULL)
        return -1;
    PyObject *now = PyLong_FromLongLong(at);
    if (now == NULL) {
        Py_DECREF(result);
        return -1;
    }
    PyObject *args[5] = {now, sid, line, idx, result};
    PyObject *r = PyObject_Vectorcall(hook, args, 5, NULL);
    Py_DECREF(now);
    Py_DECREF(result);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return sync_in(w);
}

/* -- demand_lines ----------------------------------------------------- */

PyDoc_STRVAR(demand_lines_doc,
"demand_lines(now, issue_width, lines, irregular, sid, hook, idxs)\n"
"--\n\n"
"Body of MemorySystem.demand_lines; returns (done, dram_flags).");

static PyObject *
Walk_demand_lines(Walk *w, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "demand_lines takes 7 arguments");
        return NULL;
    }
    i64 now, width;
    if (to_i64(args[0], &now) < 0 || to_i64(args[1], &width) < 0)
        return NULL;
    if (width < 1) {
        PyErr_SetString(PyExc_ValueError, "issue_width must be >= 1");
        return NULL;
    }
    int irregular = PyObject_IsTrue(args[3]);
    if (irregular < 0)
        return NULL;
    PyObject *sid = args[4];
    PyObject *hook = args[5] == Py_None ? NULL : args[5];
    PyObject *ntag = NULL, *ltag = NULL, *ready_obj = NULL;
    PyObject *seq = PySequence_Fast(args[2], "lines must be a sequence");
    if (seq == NULL)
        return NULL;
    PyObject *idxs = NULL;
    if (hook != NULL && args[6] != Py_None) {
        idxs = PySequence_Fast(args[6], "idxs must be a sequence");
        if (idxs == NULL) {
            Py_DECREF(seq);
            return NULL;
        }
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject *flags = PyByteArray_FromStringAndSize(NULL, n);
    if (flags == NULL)
        goto fail_early;
    memset(PyByteArray_AS_STRING(flags), 0, (size_t)n);
    if (n == 0) {
        Py_DECREF(seq);
        Py_XDECREF(idxs);
        return Py_BuildValue("(ON)", args[0], flags);
    }
    if (idxs != NULL && PySequence_Fast_GET_SIZE(idxs) < n) {
        PyErr_SetString(PyExc_IndexError, "idxs shorter than lines");
        goto fail_early;
    }
    if (sync_in(w) < 0)
        goto fail_early;

    const int use_nsb = irregular && w->has_nsb;
    const i64 lb = w->line_bytes;
    Level *l2 = &w->l2, *nsb = &w->nsb;
    i64 nsb_acc = 0, nsb_hit = 0, nsb_infl = 0, nsb_miss = 0;
    i64 l2_acc = 0, l2_hit = 0, l2_infl = 0, l2_miss = 0;
    i64 pf_useful = 0, pf_late = 0, nsb_bytes = 0, l2_bytes = 0;
    Evicted l2_ev = {0, 0}, nsb_ev = {0, 0};
    i64 done = now, at = now, slot = 0;
    char *fl = PyByteArray_AS_STRING(flags);

    for (Py_ssize_t k = 0; k < n; k++) {
        /* A hook may have shrunk the caller's list: index like Python. */
        if (k >= PySequence_Fast_GET_SIZE(seq) ||
            (idxs != NULL && k >= PySequence_Fast_GET_SIZE(idxs))) {
            PyErr_SetString(PyExc_IndexError, "list index out of range");
            goto fail;
        }
        PyObject *line_obj = PySequence_Fast_GET_ITEM(seq, k);
        PyObject *nset = NULL, *lset, *cline;
        i64 line, complete, ready;
        int was_pf, off_chip = 0;
        PyObject *level;
        if (to_i64(line_obj, &line) < 0)
            goto fail;
        if (w->cpu_mem != NULL && maybe_inject(w, at) < 0)
            goto fail;
        if (use_nsb) {
            nsb_acc++;
            nset = set_of(nsb, line);
            ntag = PyLong_FromLongLong(line >> nsb->tag_shift);
            if (ntag == NULL)
                goto fail;
            cline = PyDict_GetItemWithError(nset, ntag);
            if (cline == NULL && PyErr_Occurred())
                goto fail;
            if (cline != NULL) {
                if (demand_touch(w, nsb, nset, ntag, cline, line_obj, &ready,
                                 &was_pf) < 0)
                    goto fail;
                Py_CLEAR(ntag);
                if (ready <= at) {
                    nsb_hit++;
                    nsb_bytes += lb;
                    pf_useful += was_pf;
                    complete = at + nsb->lat;
                    level = w->lvl_nsb;
                }
                else {
                    nsb_infl++;
                    pf_late += was_pf;
                    complete = ready > at + nsb->lat ? ready : at + nsb->lat;
                    level = w->lvl_inflight;
                }
                if (complete > done)
                    done = complete;
                if (hook != NULL &&
                    call_hook(w, hook, at, sid, line_obj,
                              idxs ? PySequence_Fast_GET_ITEM(idxs, k)
                                   : Py_None,
                              complete, level, was_pf, 0) < 0)
                    goto fail;
                if (++slot == width) {
                    slot = 0;
                    at++;
                }
                continue;
            }
            nsb_miss++;
        }
        l2_acc++;
        lset = set_of(l2, line);
        ltag = PyLong_FromLongLong(line >> l2->tag_shift);
        if (ltag == NULL)
            goto fail;
        cline = PyDict_GetItemWithError(lset, ltag);
        if (cline == NULL && PyErr_Occurred())
            goto fail;
        if (cline != NULL) {
            if (demand_touch(w, l2, lset, ltag, cline, line_obj, &ready,
                             &was_pf) < 0)
                goto fail;
            Py_CLEAR(ltag);
            l2_bytes += lb;
            if (ready <= at) {
                l2_hit++;
                pf_useful += was_pf;
                complete = at + l2->lat;
                level = w->lvl_l2;
            }
            else {
                l2_infl++;
                pf_late += was_pf;
                complete = ready > at + l2->lat ? ready : at + l2->lat;
                level = w->lvl_inflight;
            }
            if (use_nsb) {
                ready_obj = PyLong_FromLongLong(complete);
                if (ready_obj == NULL ||
                    fill(w, nsb, &nsb_ev, nset, ntag, ready_obj, 0) < 0)
                    goto fail;
                Py_CLEAR(ready_obj);
            }
        }
        else {
            /* True L2 miss: an MSHR slot, the DRAM bus, an L2 fill. */
            i64 start;
            int full;
            l2_miss++;
            fl[k] = 1;
            was_pf = 0;
            if (PySet_Discard(w->pending, line_obj) < 0)
                goto fail;
            if (mshr_slot(w, at, &start, &full) < 0)
                goto fail;
            i64 st = start > w->bus ? start : w->bus;
            w->bus = st + w->service;
            complete = st + w->dram_lat + w->service + l2->lat;
            ready_obj = PyLong_FromLongLong(complete);
            if (ready_obj == NULL ||
                mshr_allocate(w, line_obj, ready_obj) < 0 ||
                fill(w, l2, &l2_ev, lset, ltag, ready_obj, 0) < 0)
                goto fail;
            Py_CLEAR(ltag);
            l2_bytes += lb;
            level = w->lvl_dram;
            off_chip = 1;
            if (use_nsb && fill(w, nsb, &nsb_ev, nset, ntag, ready_obj, 0) < 0)
                goto fail;
            Py_CLEAR(ready_obj);
        }
        Py_CLEAR(ntag);
        if (complete > done)
            done = complete;
        if (hook != NULL &&
            call_hook(w, hook, at, sid, line_obj,
                      idxs ? PySequence_Fast_GET_ITEM(idxs, k) : Py_None,
                      complete, level, was_pf, off_chip) < 0)
            goto fail;
        if (++slot == width) {
            slot = 0;
            at++;
        }
    }
    if (sync_out(w) < 0)
        goto fail;
    Py_DECREF(seq);
    Py_XDECREF(idxs);
    seq = idxs = NULL;
    if (use_nsb) {
        if (add_i64(w->st_nsb, s_demand_accesses, nsb_acc) < 0 ||
            add_i64(w->st_nsb, s_demand_hits, nsb_hit) < 0 ||
            add_i64(w->st_nsb, s_demand_inflight_hits, nsb_infl) < 0 ||
            add_i64(w->st_nsb, s_demand_misses, nsb_miss) < 0 ||
            add_i64(nsb->cache, s_evictions, nsb_ev.evictions) < 0 ||
            add_i64(nsb->cache, s_prefetch_evicted_unused,
                    nsb_ev.pf_evicted) < 0)
            goto fail_folded;
    }
    if (add_i64(w->st_l2, s_demand_accesses, l2_acc) < 0 ||
        add_i64(w->st_l2, s_demand_hits, l2_hit) < 0 ||
        add_i64(w->st_l2, s_demand_inflight_hits, l2_infl) < 0 ||
        add_i64(w->st_l2, s_demand_misses, l2_miss) < 0 ||
        add_i64(w->st_pf, s_useful, pf_useful) < 0 ||
        add_i64(w->st_pf, s_late, pf_late) < 0 ||
        add_i64(w->dram, s_busy_cycles, l2_miss * w->service) < 0 ||
        add_i64(w->dram, s_transfers, l2_miss) < 0 ||
        add_i64(w->dram, s_bytes_transferred, l2_miss * lb) < 0 ||
        add_i64(l2->cache, s_evictions, l2_ev.evictions) < 0 ||
        add_i64(l2->cache, s_prefetch_evicted_unused, l2_ev.pf_evicted) < 0 ||
        add_i64(w->traffic, s_nsb_to_npu_bytes, nsb_bytes) < 0 ||
        add_i64(w->traffic, s_l2_to_npu_bytes, l2_bytes) < 0 ||
        add_i64(w->traffic, s_off_chip_demand_bytes, l2_miss * lb) < 0)
        goto fail_folded;
    return Py_BuildValue("(LN)", done, flags);

fail:
    sync_out_on_error(w);
    Py_XDECREF(ntag);
    Py_XDECREF(ltag);
    Py_XDECREF(ready_obj);
fail_early:
    Py_XDECREF(seq);
    Py_XDECREF(idxs);
fail_folded:
    Py_XDECREF(flags);
    return NULL;
}

/* -- prefetch_lines --------------------------------------------------- */

PyDoc_STRVAR(prefetch_lines_doc,
"prefetch_lines(now, lines, irregular, max_issue)\n"
"--\n\n"
"Body of MemorySystem.prefetch_lines; returns (readys, consumed).");

static PyObject *
Walk_prefetch_lines(Walk *w, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "prefetch_lines takes 4 arguments");
        return NULL;
    }
    i64 now, max_issue;
    if (to_i64(args[0], &now) < 0 || to_i64(args[3], &max_issue) < 0)
        return NULL;
    int irregular = PyObject_IsTrue(args[2]);
    if (irregular < 0)
        return NULL;
    PyObject *ntag = NULL, *ltag = NULL, *ready_obj = NULL;
    PyObject *readys = PyList_New(0);
    if (readys == NULL)
        return NULL;
    PyObject *seq = PySequence_Fast(args[1], "lines must be a sequence");
    if (seq == NULL) {
        Py_DECREF(readys);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (n == 0) {
        Py_DECREF(seq);
        return Py_BuildValue("(Ni)", readys, 0);
    }
    if (sync_in(w) < 0)
        goto fail;

    const int target_nsb = irregular && w->has_nsb;
    const i64 issue = now + w->pf_penalty;
    Level *l2 = &w->l2, *nsb = &w->nsb;
    i64 issued = 0, off_chip = 0;
    Py_ssize_t consumed = n;
    Evicted l2_ev = {0, 0}, nsb_ev = {0, 0};

    for (Py_ssize_t k = 0; k < n; k++) {
        if (issued >= max_issue) {
            consumed = k;
            break;
        }
        PyObject *line_obj = PySequence_Fast_GET_ITEM(seq, k);
        PyObject *nset = NULL, *lset, *cline;
        i64 line, ready;
        if (to_i64(line_obj, &line) < 0)
            goto fail;
        if (target_nsb) {
            nset = set_of(nsb, line);
            ntag = PyLong_FromLongLong(line >> nsb->tag_shift);
            if (ntag == NULL)
                goto fail;
            cline = PyDict_GetItemWithError(nset, ntag);
            if (cline != NULL) {
                Py_CLEAR(ntag);
                continue;
            }
            if (PyErr_Occurred())
                goto fail;
        }
        lset = set_of(l2, line);
        ltag = PyLong_FromLongLong(line >> l2->tag_shift);
        if (ltag == NULL)
            goto fail;
        cline = PyDict_GetItemWithError(lset, ltag);
        if (cline == NULL && PyErr_Occurred())
            goto fail;
        if (cline != NULL) {
            Py_CLEAR(ltag);
            if (!target_nsb)
                continue;
            /* Pull from L2 into the NSB: on-chip transfer, no DRAM. */
            if (!Py_IS_TYPE(cline, w->line_type)) {
                PyErr_SetString(PyExc_TypeError, "foreign cache line");
                goto fail;
            }
            PyObject *r = slot_get(cline, w->o_ready);
            if (r == NULL || to_i64(r, &ready) < 0)
                goto fail;
            if (now + l2->lat > ready)
                ready = now + l2->lat;
            ready_obj = PyLong_FromLongLong(ready);
            if (ready_obj == NULL)
                goto fail;
        }
        else {
            /* Off-chip fill; prefetches issue after the arbitration
             * penalty, also when they waited for an MSHR slot. */
            i64 start;
            int full;
            if (mshr_slot(w, now, &start, &full) < 0)
                goto fail;
            start = full ? start + w->pf_penalty : issue;
            i64 st = start > w->bus ? start : w->bus;
            w->bus = st + w->service;
            ready = st + w->dram_lat + w->service + l2->lat;
            ready_obj = PyLong_FromLongLong(ready);
            if (ready_obj == NULL ||
                mshr_allocate(w, line_obj, ready_obj) < 0 ||
                fill(w, l2, &l2_ev, lset, ltag, ready_obj, 1) < 0)
                goto fail;
            Py_CLEAR(ltag);
            off_chip++;
        }
        if (target_nsb) {
            if (fill(w, nsb, &nsb_ev, nset, ntag, ready_obj, 1) < 0)
                goto fail;
            Py_CLEAR(ntag);
        }
        issued++;
        if (PySet_Add(w->pending, line_obj) < 0 ||
            PyList_Append(readys, ready_obj) < 0)
            goto fail;
        Py_CLEAR(ready_obj);
    }
    if (sync_out(w) < 0)
        goto fail;
    Py_CLEAR(seq);
    if (issued) {
        const i64 lb = w->line_bytes;
        if (add_i64(w->st_pf, s_issued, issued) < 0 ||
            add_i64(w->st_pf, s_issued_lines_off_chip, off_chip) < 0 ||
            add_i64(w->traffic, s_off_chip_prefetch_bytes, off_chip * lb) < 0 ||
            add_i64(w->dram, s_busy_cycles, off_chip * w->service) < 0 ||
            add_i64(w->dram, s_transfers, off_chip) < 0 ||
            add_i64(w->dram, s_bytes_transferred, off_chip * lb) < 0 ||
            add_i64(l2->cache, s_evictions, l2_ev.evictions) < 0 ||
            add_i64(l2->cache, s_prefetch_evicted_unused, l2_ev.pf_evicted) < 0)
            goto fail;
        if (target_nsb &&
            (add_i64(nsb->cache, s_evictions, nsb_ev.evictions) < 0 ||
             add_i64(nsb->cache, s_prefetch_evicted_unused,
                     nsb_ev.pf_evicted) < 0))
            goto fail;
    }
    return Py_BuildValue("(Nn)", readys, consumed);

fail:
    if (seq != NULL)
        sync_out_on_error(w);
    Py_XDECREF(seq);
    Py_XDECREF(ntag);
    Py_XDECREF(ltag);
    Py_XDECREF(ready_obj);
    Py_DECREF(readys);
    return NULL;
}

/* -- prefetch_many ---------------------------------------------------- */

/* Burst-budget state of one PrefetchPort.prefetch_many call. */
typedef struct {
    PyObject *mem;          /* port._mem, whose prefetch_lines issues */
    PyObject *irregular;
    i64 budget, burst_now, burst_used;
    i64 dropped;            /* added to port.dropped_over_budget */
    PyObject *out;          /* issued fill times; NULL until a run issues */
} Burst;

/* One same-cycle run: budget accounting around one prefetch_lines call
 * on lines[lo:hi] (on `lines` itself when `whole`). */
static int
issue_run(Burst *b, PyObject *at_obj, PyObject *lines, Py_ssize_t lo,
          Py_ssize_t hi, int whole)
{
    i64 at;
    if (to_i64(at_obj, &at) < 0)
        return -1;
    if (at != b->burst_now) {
        b->burst_now = at;
        b->burst_used = 0;
    }
    i64 remaining = b->budget - b->burst_used;
    if (remaining <= 0) {
        b->dropped += hi - lo;
        return 0;
    }
    PyObject *seg = whole ? Py_NewRef(lines)
                          : PySequence_GetSlice(lines, lo, hi);
    if (seg == NULL)
        return -1;
    PyObject *rem = PyLong_FromLongLong(remaining);
    if (rem == NULL) {
        Py_DECREF(seg);
        return -1;
    }
    /* Looked up on the memory system like any other call, so a wrapper
     * installed on the class sees every run. */
    PyObject *call_args[5] = {b->mem, at_obj, seg, b->irregular, rem};
    PyObject *res = PyObject_VectorcallMethod(s_prefetch_lines, call_args, 5,
                                              NULL);
    Py_DECREF(seg);
    Py_DECREF(rem);
    if (res == NULL)
        return -1;
    i64 consumed;
    if (!PyTuple_Check(res) || PyTuple_GET_SIZE(res) != 2 ||
        !PyList_CheckExact(PyTuple_GET_ITEM(res, 0))) {
        Py_DECREF(res);
        PyErr_SetString(PyExc_TypeError,
                        "prefetch_lines must return (list, int)");
        return -1;
    }
    PyObject *readys = PyTuple_GET_ITEM(res, 0);
    if (to_i64(PyTuple_GET_ITEM(res, 1), &consumed) < 0) {
        Py_DECREF(res);
        return -1;
    }
    b->burst_used += PyList_GET_SIZE(readys);
    b->dropped += (hi - lo) - consumed;
    int rc = 0;
    if (b->out == NULL)
        b->out = Py_NewRef(readys);
    else
        rc = PyList_SetSlice(b->out, PyList_GET_SIZE(b->out),
                             PyList_GET_SIZE(b->out), readys);
    Py_DECREF(res);
    return rc;
}

/* Split `ats` into same-cycle runs of the non-decreasing issue cycles
 * and issue each; the last run takes the rest of the lines, as
 * lines[start:] does. */
static int
issue_runs(Burst *b, PyObject *ats, PyObject *lines, Py_ssize_t n_lines)
{
    PyObject *seq = PySequence_Fast(ats, "ats must be an int or a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    int rc = 0;
    i64 first, cur = 0;
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "ats is empty");
        rc = -1;
    }
    else if (to_i64(PySequence_Fast_GET_ITEM(seq, 0), &first) < 0) {
        rc = -1;
    }
    Py_ssize_t start = 0;
    for (Py_ssize_t i = 1; rc == 0 && i <= n; i++) {
        if (i < n) {
            if (to_i64(PySequence_Fast_GET_ITEM(seq, i), &cur) < 0) {
                rc = -1;
                break;
            }
            if (cur == first)
                continue;
        }
        Py_ssize_t lo = start < n_lines ? start : n_lines;
        Py_ssize_t hi = i < n && i < n_lines ? i : n_lines;
        rc = issue_run(b, PySequence_Fast_GET_ITEM(seq, start), lines, lo, hi,
                       0);
        start = i;
        first = cur;
    }
    Py_DECREF(seq);
    return rc;
}

PyDoc_STRVAR(prefetch_many_doc,
"prefetch_many(port, ats, lines, irregular)\n"
"--\n\n"
"Body of PrefetchPort.prefetch_many for a port over this memory system:\n"
"split into same-cycle runs, charge the burst budget, and issue each run\n"
"through port._mem.prefetch_lines. Returns the issued fill times.");

static PyObject *
Walk_prefetch_many(Walk *w, PyObject *const *args, Py_ssize_t nargs)
{
    (void)w;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "prefetch_many takes 4 arguments");
        return NULL;
    }
    PyObject *port = args[0], *ats = args[1], *lines = args[2];
    Burst b = {NULL, args[3], 0, 0, 0, 0, NULL};
    if (get_i64(port, s_burst_now, &b.burst_now) < 0 ||
        get_i64(port, s_burst_used, &b.burst_used) < 0 ||
        get_i64(port, s_burst_budget, &b.budget) < 0)
        return NULL;
    const i64 now0 = b.burst_now, used0 = b.burst_used;
    Py_ssize_t n_lines = PyObject_Length(lines);
    if (n_lines < 0)
        return NULL;
    b.mem = PyObject_GetAttr(port, s_mem);
    if (b.mem == NULL)
        return NULL;
    int rc = PyLong_Check(ats) ? issue_run(&b, ats, lines, 0, n_lines, 1)
                               : issue_runs(&b, ats, lines, n_lines);
    Py_DECREF(b.mem);
    /* Changed port state is written back on every exit, as the Python
     * loop leaves it; prefetch_lines itself never reads the port. */
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    if ((b.burst_now != now0 && set_i64(port, s_burst_now, b.burst_now) < 0) ||
        (b.burst_used != used0 &&
         set_i64(port, s_burst_used, b.burst_used) < 0) ||
        add_i64(port, s_dropped_over_budget, b.dropped) < 0) {
        rc = -1;
        if (type != NULL)
            PyErr_Clear();
    }
    if (type != NULL)
        PyErr_Restore(type, value, tb);
    if (rc < 0) {
        Py_XDECREF(b.out);
        return NULL;
    }
    return b.out != NULL ? b.out : PyList_New(0);
}

/* -- type plumbing ---------------------------------------------------- */

static int
Walk_traverse(Walk *w, visitproc visit, void *arg)
{
    Py_VISIT(w->l2.cache);
    Py_VISIT(w->l2.sets);
    Py_VISIT(w->nsb.cache);
    Py_VISIT(w->nsb.sets);
    Py_VISIT(w->mshr);
    Py_VISIT(w->heap);
    Py_VISIT(w->inflight);
    Py_VISIT(w->dram);
    Py_VISIT(w->pending);
    Py_VISIT(w->st_nsb);
    Py_VISIT(w->st_l2);
    Py_VISIT(w->st_pf);
    Py_VISIT(w->traffic);
    Py_VISIT(w->cpu_mem);
    Py_VISIT(w->line_type);
    Py_VISIT(w->result_type);
    Py_VISIT(w->lvl_nsb);
    Py_VISIT(w->lvl_l2);
    Py_VISIT(w->lvl_inflight);
    Py_VISIT(w->lvl_dram);
    return 0;
}

static int
Walk_clear(Walk *w)
{
    Py_CLEAR(w->l2.cache);
    Py_CLEAR(w->l2.sets);
    Py_CLEAR(w->nsb.cache);
    Py_CLEAR(w->nsb.sets);
    Py_CLEAR(w->mshr);
    Py_CLEAR(w->heap);
    Py_CLEAR(w->inflight);
    Py_CLEAR(w->dram);
    Py_CLEAR(w->pending);
    Py_CLEAR(w->st_nsb);
    Py_CLEAR(w->st_l2);
    Py_CLEAR(w->st_pf);
    Py_CLEAR(w->traffic);
    Py_CLEAR(w->cpu_mem);
    Py_CLEAR(w->line_type);
    Py_CLEAR(w->result_type);
    Py_CLEAR(w->lvl_nsb);
    Py_CLEAR(w->lvl_l2);
    Py_CLEAR(w->lvl_inflight);
    Py_CLEAR(w->lvl_dram);
    return 0;
}

static void
Walk_dealloc(Walk *w)
{
    PyObject_GC_UnTrack(w);
    Walk_clear(w);
    Py_TYPE(w)->tp_free((PyObject *)w);
}

PyDoc_STRVAR(walk_doc,
"Walk(l2, l2_hot, l2_lat, nsb, nsb_hot, nsb_lat, mshr, mshr_hot, dram,\n"
"     dram_lat, line_service, pf_penalty, line_bytes, pending, nsb_stats,\n"
"     l2_stats, pf_stats, traffic, cpu_mem, cpu_rate, line_type,\n"
"     result_type, levels)\n"
"--\n\n"
"The hierarchy state one MemorySystem's walks run against. nsb, nsb_hot\n"
"and nsb_lat are None without an NSB; cpu_mem is the MemorySystem when\n"
"CPU traffic is configured, else None. levels is the HitLevel tuple\n"
"(NSB, L2, INFLIGHT, DRAM).");

static PyObject *
Walk_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *l2, *l2_hot, *l2_lat, *nsb, *nsb_hot, *nsb_lat, *mshr,
        *mshr_hot, *dram, *dram_lat, *service, *penalty, *line_bytes,
        *pending, *st_nsb, *st_l2, *st_pf, *traffic, *cpu_mem, *cpu_rate,
        *levels;
    PyTypeObject *line_type, *result_type;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "Walk takes positional arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOOO!OOOOOOO!O!O!:Walk", &l2,
                          &l2_hot, &l2_lat, &nsb, &nsb_hot, &nsb_lat, &mshr,
                          &mshr_hot, &dram, &dram_lat, &service, &penalty,
                          &line_bytes, &PySet_Type, &pending, &st_nsb, &st_l2,
                          &st_pf, &traffic, &cpu_mem, &cpu_rate,
                          &PyType_Type, &line_type, &PyType_Type,
                          &result_type, &PyTuple_Type, &levels))
        return NULL;
    if (PyTuple_GET_SIZE(levels) != 4) {
        PyErr_SetString(PyExc_TypeError, "levels must be a 4-tuple");
        return NULL;
    }
    if (!PyTuple_Check(mshr_hot) || PyTuple_GET_SIZE(mshr_hot) != 3 ||
        !PyList_CheckExact(PyTuple_GET_ITEM(mshr_hot, 0)) ||
        !PyDict_CheckExact(PyTuple_GET_ITEM(mshr_hot, 1))) {
        PyErr_SetString(PyExc_TypeError,
                        "MSHR hot state must be (list, dict, capacity)");
        return NULL;
    }
    Walk *w = (Walk *)type->tp_alloc(type, 0);
    if (w == NULL)
        return NULL;
    i64 cap;
    if (level_init(&w->l2, l2, l2_hot, l2_lat) < 0)
        goto fail;
    w->has_nsb = nsb != Py_None;
    if (w->has_nsb && level_init(&w->nsb, nsb, nsb_hot, nsb_lat) < 0)
        goto fail;
    if (to_i64(PyTuple_GET_ITEM(mshr_hot, 2), &cap) < 0 ||
        to_i64(dram_lat, &w->dram_lat) < 0 ||
        to_i64(service, &w->service) < 0 ||
        to_i64(penalty, &w->pf_penalty) < 0 ||
        to_i64(line_bytes, &w->line_bytes) < 0)
        goto fail;
    if (cap < 1) {
        PyErr_SetString(PyExc_ValueError, "MSHR capacity must be >= 1");
        goto fail;
    }
    w->mshr_cap = (Py_ssize_t)cap;
    if (cpu_mem != Py_None) {
        if (to_i64(cpu_rate, &w->cpu_rate) < 0)
            goto fail;
        w->cpu_mem = Py_NewRef(cpu_mem);
    }
    if (slot_offset(line_type, "tag", &w->o_tag) < 0 ||
        slot_offset(line_type, "ready_at", &w->o_ready) < 0 ||
        slot_offset(line_type, "filled_by_prefetch", &w->o_bypf) < 0 ||
        slot_offset(line_type, "demand_touched", &w->o_touched) < 0 ||
        slot_offset(line_type, "last_use", &w->o_last) < 0 ||
        slot_offset(result_type, "complete_at", &w->o_complete) < 0 ||
        slot_offset(result_type, "hit_level", &w->o_level) < 0 ||
        slot_offset(result_type, "was_prefetched", &w->o_waspf) < 0 ||
        slot_offset(result_type, "off_chip", &w->o_offchip) < 0)
        goto fail;
    w->mshr = Py_NewRef(mshr);
    w->heap = Py_NewRef(PyTuple_GET_ITEM(mshr_hot, 0));
    w->inflight = Py_NewRef(PyTuple_GET_ITEM(mshr_hot, 1));
    w->dram = Py_NewRef(dram);
    w->pending = Py_NewRef(pending);
    w->st_nsb = Py_NewRef(st_nsb);
    w->st_l2 = Py_NewRef(st_l2);
    w->st_pf = Py_NewRef(st_pf);
    w->traffic = Py_NewRef(traffic);
    w->line_type = (PyTypeObject *)Py_NewRef(line_type);
    w->result_type = (PyTypeObject *)Py_NewRef(result_type);
    w->lvl_nsb = Py_NewRef(PyTuple_GET_ITEM(levels, 0));
    w->lvl_l2 = Py_NewRef(PyTuple_GET_ITEM(levels, 1));
    w->lvl_inflight = Py_NewRef(PyTuple_GET_ITEM(levels, 2));
    w->lvl_dram = Py_NewRef(PyTuple_GET_ITEM(levels, 3));
    return (PyObject *)w;

fail:
    Py_DECREF(w);
    return NULL;
}

static PyMethodDef Walk_methods[] = {
    {"demand_lines", (PyCFunction)(void (*)(void))Walk_demand_lines,
     METH_FASTCALL, demand_lines_doc},
    {"prefetch_lines",
     (PyCFunction)(void (*)(void))Walk_prefetch_lines, METH_FASTCALL,
     prefetch_lines_doc},
    {"prefetch_many", (PyCFunction)(void (*)(void))Walk_prefetch_many,
     METH_FASTCALL, prefetch_many_doc},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject WalkType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.memory._walk.Walk",
    .tp_basicsize = sizeof(Walk),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = walk_doc,
    .tp_new = Walk_new,
    .tp_dealloc = (destructor)Walk_dealloc,
    .tp_traverse = (traverseproc)Walk_traverse,
    .tp_clear = (inquiry)Walk_clear,
    .tp_methods = Walk_methods,
};

static struct PyModuleDef walk_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_walk",
    .m_doc = "Compiled memory-hierarchy walk (see kernel.py).",
    .m_size = -1,
};

#define INTERN(var, text)                                                   \
    if ((var = PyUnicode_InternFromString(text)) == NULL)                   \
        return NULL;

PyMODINIT_FUNC
PyInit__walk(void)
{
    INTERN(s_use_counter, "_use_counter")
    INTERN(s_evictions, "evictions")
    INTERN(s_prefetch_evicted_unused, "prefetch_evicted_unused")
    INTERN(s_bus_free_at, "_bus_free_at")
    INTERN(s_busy_cycles, "busy_cycles")
    INTERN(s_transfers, "transfers")
    INTERN(s_bytes_transferred, "bytes_transferred")
    INTERN(s_structural_stalls, "structural_stalls")
    INTERN(s_peak_occupancy, "peak_occupancy")
    INTERN(s_cpu_last_inject, "_cpu_last_inject")
    INTERN(s_inject_cpu_traffic, "_inject_cpu_traffic")
    INTERN(s_demand_accesses, "demand_accesses")
    INTERN(s_demand_hits, "demand_hits")
    INTERN(s_demand_inflight_hits, "demand_inflight_hits")
    INTERN(s_demand_misses, "demand_misses")
    INTERN(s_useful, "useful")
    INTERN(s_late, "late")
    INTERN(s_issued, "issued")
    INTERN(s_issued_lines_off_chip, "issued_lines_off_chip")
    INTERN(s_nsb_to_npu_bytes, "nsb_to_npu_bytes")
    INTERN(s_l2_to_npu_bytes, "l2_to_npu_bytes")
    INTERN(s_off_chip_demand_bytes, "off_chip_demand_bytes")
    INTERN(s_off_chip_prefetch_bytes, "off_chip_prefetch_bytes")
    INTERN(s_mem, "_mem")
    INTERN(s_prefetch_lines, "prefetch_lines")
    INTERN(s_burst_now, "_burst_now")
    INTERN(s_burst_used, "_burst_used")
    INTERN(s_burst_budget, "burst_budget")
    INTERN(s_dropped_over_budget, "dropped_over_budget")
    if (PyType_Ready(&WalkType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&walk_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&WalkType);
    if (PyModule_AddObject(m, "Walk", (PyObject *)&WalkType) < 0) {
        Py_DECREF(&WalkType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
