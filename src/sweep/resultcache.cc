/**
 * @file
 * ResultCache implementation. Same NDJSON + CRC + single-write(2)
 * discipline as the sweep journal, but with the opposite failure
 * policy: a cache is recomputable, so damage and staleness degrade to
 * a rewrite, never to an error the caller must handle.
 */

#include "sweep/resultcache.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "base/fnv.hh"
#include "base/fsutil.hh"
#include "serve/protocol.hh"

namespace eq {
namespace sweep {

namespace {

constexpr int kCacheVersion = 1;

std::string
hexU64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
hexToU64(const std::string &s, uint64_t *out)
{
    if (s.empty() || s.size() > 16)
        return false;
    uint64_t v = 0;
    for (char c : s) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return false;
        v = (v << 4) | uint64_t(d);
    }
    *out = v;
    return true;
}

std::string
recordPayload(uint64_t hash, const std::string &key,
              const std::vector<Cell> &cells)
{
    serve::Json rec = serve::Json::object();
    rec.set("h", hexU64(hash));
    rec.set("key", key);
    rec.set("cells", serve::cellsToJson(cells));
    return rec.dump();
}

std::string
sealRecord(const std::string &payload)
{
    uint32_t crc = fs::crc32(payload.data(), payload.size());
    std::string line = payload;
    line.pop_back();
    line += ",\"crc\":";
    line += std::to_string(crc);
    line += "}\n";
    return line;
}

bool
parseRecordLine(const std::string &line,
                const std::vector<Column> &schema, uint64_t *hash,
                std::string *key, std::vector<Cell> *cells)
{
    serve::Json j;
    std::string err;
    if (!serve::Json::parse(line, &j, &err) || !j.isObject())
        return false;
    const serve::Json *jh = j.find("h");
    const serve::Json *jkey = j.find("key");
    const serve::Json *jcells = j.find("cells");
    const serve::Json *jcrc = j.find("crc");
    if (!jh || !jh->isStr() || !jkey || !jkey->isStr() || !jcells ||
        !jcrc || !jcrc->isInt())
        return false;
    if (!hexToU64(jh->asStr(), hash))
        return false;
    if (!serve::cellsFromJson(*jcells, schema, cells, nullptr))
        return false;
    const std::string payload =
        recordPayload(*hash, jkey->asStr(), *cells);
    if (int64_t(fs::crc32(payload.data(), payload.size())) !=
        jcrc->asInt())
        return false;
    *key = jkey->asStr();
    return true;
}

} // namespace

ResultCache::~ResultCache() { close(); }

void
ResultCache::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

uint64_t
ResultCache::hashKey(const std::string &key)
{
    return fnv1a(kFnvOffset, key);
}

bool
ResultCache::writeHeader(std::string *err)
{
    serve::Json h = serve::Json::object();
    h.set("cache", "eqsweep-results");
    h.set("version", kCacheVersion);
    h.set("schema", _schemaSig);
    h.set("backend", _backend);
    h.set("fuse", _fuse);
    const std::string line = h.dump() + "\n";
    if (::write(_fd, line.data(), line.size()) !=
        ssize_t(line.size())) {
        if (err)
            *err = "write cache header " + _path + ": " +
                   std::strerror(errno);
        return false;
    }
    if (::fsync(_fd) != 0) {
        if (err)
            *err = "fsync cache header " + _path + ": " +
                   std::strerror(errno);
        return false;
    }
    return true;
}

bool
ResultCache::open(const std::string &path, const std::string &schema_sig,
                  const std::string &backend, const std::string &fuse,
                  const std::vector<Column> &schema, std::string *err)
{
    close();
    _path = path;
    _schemaSig = schema_sig;
    _backend = backend;
    _fuse = fuse;
    _schema = schema;
    _byHash.clear();
    _stats = Stats();

    // Read whatever is there; decide between resume-append, truncate
    // to a valid prefix, or start over with a fresh header.
    std::string text;
    bool haveFile = fs::fileExists(path);
    if (haveFile && !fs::readFile(path, &text, err))
        return false;

    bool rewrite = !haveFile;
    size_t keptBytes = 0;
    std::vector<Row> loaded;
    std::vector<uint64_t> loadedHash;
    if (haveFile) {
        size_t headerEnd = text.find('\n');
        serve::Json hj;
        std::string perr;
        if (headerEnd == std::string::npos ||
            !serve::Json::parse(text.substr(0, headerEnd), &hj, &perr) ||
            !hj.isObject() ||
            hj.getStr("cache", "") != "eqsweep-results" ||
            hj.getInt("version", -1) != kCacheVersion ||
            hj.getStr("schema", "") != schema_sig ||
            hj.getStr("backend", "") != backend ||
            hj.getStr("fuse", "") != fuse) {
            // Stale or unreadable header: the whole file describes
            // rows this sweep must not reuse.
            rewrite = true;
            size_t droppedRows = 0;
            for (char c : text)
                droppedRows += c == '\n';
            _stats.discarded += droppedRows > 0 ? droppedRows - 1 : 0;
        } else {
            keptBytes = headerEnd + 1;
            size_t pos = keptBytes;
            while (pos < text.size()) {
                size_t nl = text.find('\n', pos);
                const bool complete = nl != std::string::npos;
                uint64_t hash = 0;
                std::string key;
                std::vector<Cell> cells;
                if (complete &&
                    parseRecordLine(
                        text.substr(pos, nl - pos), schema, &hash,
                        &key, &cells)) {
                    loaded.push_back(Row{std::move(key),
                                         std::move(cells)});
                    loadedHash.push_back(hash);
                    pos = nl + 1;
                    keptBytes = pos;
                    continue;
                }
                // First bad line: drop it and everything after. A
                // cache is recomputable, so (unlike the journal) a
                // damaged middle is not worth refusing over.
                size_t remaining = 0;
                for (size_t p = pos; p < text.size(); ++p)
                    remaining += text[p] == '\n';
                _stats.discarded += remaining ? remaining : 1;
                break;
            }
        }
    }

    if (rewrite) {
        _fd = ::open(path.c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
        if (_fd < 0) {
            if (err)
                *err = "create cache " + path + ": " +
                       std::strerror(errno);
            return false;
        }
        return writeHeader(err);
    }

    if (keptBytes < text.size() &&
        ::truncate(path.c_str(), off_t(keptBytes)) != 0) {
        if (err)
            *err = "truncate cache " + path + ": " +
                   std::strerror(errno);
        return false;
    }
    _fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (_fd < 0) {
        if (err)
            *err = "open cache " + path + ": " + std::strerror(errno);
        return false;
    }
    for (size_t i = 0; i < loaded.size(); ++i) {
        auto &bucket = _byHash[loadedHash[i]];
        bool dup = false;
        for (const Row &row : bucket)
            dup = dup || row.key == loaded[i].key;
        if (!dup) {
            bucket.push_back(std::move(loaded[i]));
            ++_stats.loaded;
            ++_stats.entries;
        }
    }
    return true;
}

const std::vector<Cell> *
ResultCache::lookup(const std::string &key)
{
    return lookupHashed(hashKey(key), key);
}

const std::vector<Cell> *
ResultCache::lookupHashed(uint64_t hash, const std::string &key)
{
    auto it = _byHash.find(hash);
    if (it != _byHash.end()) {
        for (const Row &row : it->second) {
            if (row.key == key) {
                ++_stats.hits;
                return &row.cells;
            }
            ++_stats.collisions;
        }
    }
    ++_stats.misses;
    return nullptr;
}

bool
ResultCache::contains(const std::string &key) const
{
    auto it = _byHash.find(hashKey(key));
    if (it == _byHash.end())
        return false;
    for (const Row &row : it->second)
        if (row.key == key)
            return true;
    return false;
}

bool
ResultCache::appendRecordLine(uint64_t hash, const std::string &key,
                              const std::vector<Cell> &cells,
                              std::string *err)
{
    if (_fd < 0) {
        if (err)
            *err = "result cache is not open";
        return false;
    }
    const std::string line = sealRecord(recordPayload(hash, key, cells));
    size_t off = 0;
    while (off < line.size()) {
        ssize_t n = ::write(_fd, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = std::string("cache write: ") +
                       std::strerror(errno);
            return false;
        }
        off += size_t(n);
    }
    return true;
}

bool
ResultCache::appendHashed(uint64_t hash, const std::string &key,
                          const std::vector<Cell> &cells,
                          std::string *err)
{
    auto &bucket = _byHash[hash];
    for (const Row &row : bucket)
        if (row.key == key)
            return true; // first write wins; equal keys ⇒ equal rows
    if (!appendRecordLine(hash, key, cells, err))
        return false;
    bucket.push_back(Row{key, cells});
    ++_stats.appended;
    ++_stats.entries;
    return true;
}

bool
ResultCache::append(const std::string &key,
                    const std::vector<Cell> &cells, std::string *err)
{
    return appendHashed(hashKey(key), key, cells, err);
}

bool
ResultCache::sync(std::string *err)
{
    if (_fd >= 0 && ::fsync(_fd) != 0) {
        if (err)
            *err = std::string("cache fsync: ") + std::strerror(errno);
        return false;
    }
    return true;
}

} // namespace sweep
} // namespace eq
