#include "base/fields.hh"

namespace eq {
namespace fields {

const Field *
find(const Table &t, const std::string &name)
{
    for (const Field &f : t.fields)
        if (name == f.name)
            return &f;
    return nullptr;
}

std::string
fieldError(const Table &t, const std::string &path, const char *name)
{
    return std::string(t.what) + " config field '" + path + name + "'";
}

std::string
expected(const Field &f)
{
    std::string range = std::to_string(f.lo) + ".." + std::to_string(f.hi);
    if (f.kind == Kind::Int)
        return "in " + range;
    if (f.kind == Kind::List)
        return "a list of " + range + " entries";
    std::string names;
    for (int64_t i = 0; i <= f.hi; ++i)
        names += (i ? ", " : "") + std::string(f.spellings[i]);
    return "one of " + names + " (index " + range + ")";
}

bool
inRange(const Table &t, const Field &f, int64_t v, const std::string &path,
        std::string *err)
{
    if (v >= f.lo && v <= f.hi)
        return true;
    *err = fieldError(t, path, f.name) + " must be " + expected(f) +
           " (got " + std::to_string(v) + ")";
    return false;
}

bool
equal(const Table &t, const void *a, const void *b)
{
    for (const Field &f : t.fields) {
        int64_t n = f.get(a);
        if (n != f.get(b))
            return false;
        for (int64_t i = 0; f.kind == Kind::List && i < n; ++i)
            if (!equal(*f.elem, f.at(a, size_t(i)), f.at(b, size_t(i))))
                return false;
    }
    return true;
}

uint64_t
hash(const Table &t, const void *rec, uint64_t h)
{
    for (const Field &f : t.fields) {
        int64_t n = f.get(rec);
        h = fnv1a(h, uint64_t(n));
        for (int64_t i = 0; f.kind == Kind::List && i < n; ++i)
            h = hash(*f.elem, f.at(rec, size_t(i)), h);
    }
    return h;
}

bool
validate(const Table &t, const void *rec, std::string *err,
         const std::string &path)
{
    for (const Field &f : t.fields) {
        int64_t n = f.get(rec);
        if (!inRange(t, f, n, path, err))
            return false;
        if (f.cap && n > f.cap(rec)) {
            const char *capName = "?";
            for (const Field &c : t.fields)
                if (c.get == f.cap)
                    capName = c.name;
            *err = fieldError(t, path, f.name) + " must not exceed '" +
                   capName + "' (" + std::to_string(n) + " > " +
                   std::to_string(f.cap(rec)) + ")";
            return false;
        }
        for (int64_t i = 0; f.kind == Kind::List && i < n; ++i)
            if (!validate(*f.elem, f.at(rec, size_t(i)), err,
                          path + f.name + "[" + std::to_string(i) + "]."))
                return false;
    }
    return true;
}

bool
applyAxis(const Table &t, void *rec, const std::string &name, int64_t v,
          std::string *err)
{
    const Field *f = find(t, name);
    if (f && f->axis) {
        if (!inRange(t, *f, v, "", err))
            return false;
        f->set(rec, v);
        return true;
    }
    for (const Composite &c : t.composites) {
        if (name != c.name)
            continue;
        if (v >= c.lo && v <= c.hi) {
            c.apply(rec, v);
            return true;
        }
        *err = std::string(t.what) + " axis '" + name + "' must be in " +
               std::to_string(c.lo) + ".." + std::to_string(c.hi) +
               " (got " + std::to_string(v) + ")";
        return false;
    }
    *err = "unknown " + std::string(t.what) + " axis '" + name + "'";
    return false;
}

} // namespace fields
} // namespace eq
