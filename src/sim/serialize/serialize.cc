#include "sim/serialize/serialize.hh"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace emerald
{

namespace
{

const char *
recordTypeName(RecordType t)
{
    switch (t) {
    case RecordType::U64: return "u64";
    case RecordType::I64: return "i64";
    case RecordType::F64: return "f64";
    case RecordType::Bool: return "bool";
    case RecordType::Str: return "str";
    case RecordType::Blob: return "blob";
    case RecordType::U64Vec: return "u64vec";
    case RecordType::F64Vec: return "f64vec";
    }
    return "?";
}

void
appendLE(std::string &buf, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
readLE(const char *p, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

/**
 * Internal parse failure: thrown by the manifest scanner so the two
 * consumers can diverge — CheckpointReader turns it into the usual
 * fatal(), probeCheckpoint() into a recoverable MalformedManifest.
 */
struct ManifestError
{
    std::string msg;
    CkptIntegrity status = CkptIntegrity::MalformedManifest;
};

/**
 * Minimal JSON scanner for the manifest we write ourselves: objects,
 * arrays, strings and unsigned integers. All numeric manifest fields
 * are written as JSON strings (u64 values do not survive a double
 * round-trip), so the number production only needs to tolerate, not
 * preserve, foreign numbers.
 */
class ManifestParser
{
  public:
    ManifestParser(const std::string &text, std::string path)
        : _text(text), _path(std::move(path))
    {}

    [[noreturn]] void
    die(const char *what) const
    {
        throw ManifestError{strprintf(
            "checkpoint manifest '%s': malformed JSON (%s near "
            "offset %zu)", _path.c_str(), what, _pos)};
    }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\n' ||
                _text[_pos] == '\t' || _text[_pos] == '\r'))
            ++_pos;
    }

    char
    peek()
    {
        skipWs();
        if (_pos >= _text.size())
            die("unexpected end");
        return _text[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            die("unexpected character");
        ++_pos;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _text.size())
                die("unterminated string");
            char c = _text[_pos++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (_pos >= _text.size())
                    die("bad escape");
                char e = _text[_pos++];
                switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case 'n': out.push_back('\n'); break;
                case 't': out.push_back('\t'); break;
                case '/': out.push_back('/'); break;
                default: die("unsupported escape");
                }
            } else {
                out.push_back(c);
            }
        }
    }

    /** Parse a value but keep only strings; others are skipped. */
    std::string
    parseScalar()
    {
        char c = peek();
        if (c == '"')
            return parseString();
        // Bare number (tolerated, returned as text).
        std::string out;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '-' || _text[_pos] == '.' ||
                _text[_pos] == 'e' || _text[_pos] == 'E' ||
                _text[_pos] == '+'))
            out.push_back(_text[_pos++]);
        if (out.empty())
            die("expected scalar");
        return out;
    }

    /**
     * Parse an object of scalar fields plus at most one array-valued
     * field; @p onField receives scalar fields, @p onArrayElem is
     * invoked with a fresh sub-object parser position for each array
     * element (used for "sections").
     */
    template <typename FieldFn, typename ArrayFn>
    void
    parseObject(FieldFn onField, ArrayFn onArrayElem)
    {
        expect('{');
        if (peek() == '}') {
            ++_pos;
            return;
        }
        while (true) {
            std::string key = parseString();
            expect(':');
            if (peek() == '[') {
                ++_pos;
                if (peek() == ']') {
                    ++_pos;
                } else {
                    while (true) {
                        onArrayElem(key);
                        char c = peek();
                        if (c == ',') {
                            ++_pos;
                            continue;
                        }
                        expect(']');
                        break;
                    }
                }
            } else {
                onField(key, parseScalar());
            }
            char c = peek();
            if (c == ',') {
                ++_pos;
                continue;
            }
            expect('}');
            return;
        }
    }

  private:
    const std::string &_text;
    std::string _path;
    std::size_t _pos = 0;
};

std::uint64_t
parseU64Field(const std::string &text, const std::string &key,
              const std::string &path)
{
    char *end = nullptr;
    std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') {
        throw ManifestError{strprintf(
            "checkpoint manifest '%s': field '%s' ('%s') is not an "
            "unsigned integer", path.c_str(), key.c_str(),
            text.c_str())};
    }
    return v;
}

/** One parsed section-table entry. */
struct SectionEntry
{
    std::size_t offset = 0;
    std::size_t size = 0;
    std::uint32_t crc = 0;
};

/** Everything a manifest.json holds, independent of error policy. */
struct ManifestData
{
    std::uint64_t version = 0;
    bool sawVersion = false;
    std::uint64_t fingerprint = 0;
    std::uint64_t tick = 0;
    std::uint64_t numProcessed = 0;
    std::map<std::string, SectionEntry> sections;
};

/**
 * Parse @p text (throws ManifestError on any malformation, including a
 * section without a CRC, and on a format version other than
 * checkpointFormatVersion).
 */
ManifestData
parseManifestText(const std::string &text, const std::string &path)
{
    ManifestData md;
    std::string no_crc;
    ManifestParser p(text, path);
    p.parseObject(
        [&](const std::string &key, const std::string &value) {
            if (key == "format_version") {
                md.version = parseU64Field(value, key, path);
                md.sawVersion = true;
            } else if (key == "config_fingerprint") {
                md.fingerprint = parseU64Field(value, key, path);
            } else if (key == "tick") {
                md.tick = parseU64Field(value, key, path);
            } else if (key == "num_processed") {
                md.numProcessed = parseU64Field(value, key, path);
            }
            // Unknown scalar fields are ignored: adding manifest
            // metadata is a compatible change.
        },
        [&](const std::string &key) {
            std::string name;
            SectionEntry entry;
            bool saw_crc = false;
            p.parseObject(
                [&](const std::string &k, const std::string &v) {
                    if (k == "name") {
                        name = v;
                    } else if (k == "offset") {
                        entry.offset = static_cast<std::size_t>(
                            parseU64Field(v, k, path));
                    } else if (k == "size") {
                        entry.size = static_cast<std::size_t>(
                            parseU64Field(v, k, path));
                    } else if (k == "crc") {
                        entry.crc = static_cast<std::uint32_t>(
                            parseU64Field(v, k, path));
                        saw_crc = true;
                    }
                },
                [&](const std::string &) {
                    p.die("nested array in section entry");
                });
            if (key != "sections") {
                throw ManifestError{strprintf(
                    "checkpoint manifest '%s': unexpected array "
                    "field '%s'", path.c_str(), key.c_str())};
            }
            if (name.empty()) {
                throw ManifestError{strprintf(
                    "checkpoint manifest '%s': section without a "
                    "name", path.c_str())};
            }
            if (!saw_crc && no_crc.empty())
                no_crc = name;
            auto [it, inserted] = md.sections.emplace(name, entry);
            if (!inserted) {
                throw ManifestError{strprintf(
                    "checkpoint manifest '%s': duplicate section "
                    "'%s'", path.c_str(), name.c_str())};
            }
        });
    if (!md.sawVersion) {
        throw ManifestError{strprintf(
            "checkpoint manifest '%s': missing format_version",
            path.c_str())};
    }
    if (md.version != checkpointFormatVersion) {
        throw ManifestError{
            strprintf("checkpoint manifest '%s': format version %llu "
                      "(this binary reads version %llu)", path.c_str(),
                      (unsigned long long)md.version,
                      (unsigned long long)checkpointFormatVersion),
            CkptIntegrity::UnsupportedVersion};
    }
    if (!no_crc.empty()) {
        throw ManifestError{strprintf(
            "checkpoint manifest '%s': section '%s' has no crc",
            path.c_str(), no_crc.c_str())};
    }
    return md;
}

/** Read a whole file into @p out; false when it cannot be opened. */
bool
slurpFile(const std::string &path, std::string &out, bool binary)
{
    std::ifstream in(path, binary ? std::ios::binary
                                  : std::ios::in);
    if (!in.is_open())
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // namespace

std::uint32_t
crc32(const void *bytes, std::size_t n)
{
    // Bitwise (table-free) reflected CRC-32: checkpoint sections are
    // at most a few MB, so the 8x table speedup is not worth the
    // cache footprint here.
    const auto *p = static_cast<const unsigned char *>(bytes);
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0xedb88320u & (-(crc & 1u)));
    }
    return crc ^ 0xffffffffu;
}

const char *
ckptIntegrityName(CkptIntegrity status)
{
    switch (status) {
    case CkptIntegrity::Ok: return "ok";
    case CkptIntegrity::MissingManifest: return "missing-manifest";
    case CkptIntegrity::MalformedManifest: return "malformed-manifest";
    case CkptIntegrity::UnsupportedVersion: return "unsupported-version";
    case CkptIntegrity::MissingData: return "missing-data";
    case CkptIntegrity::TruncatedSection: return "truncated-section";
    case CkptIntegrity::CrcMismatch: return "crc-mismatch";
    }
    return "?";
}

CkptProbe
probeCheckpoint(const std::string &dir)
{
    CkptProbe probe;
    std::string manifest_path = dir + "/manifest.json";
    std::string text;
    if (!slurpFile(manifest_path, text, /*binary=*/false)) {
        probe.status = CkptIntegrity::MissingManifest;
        probe.detail = "cannot open " + manifest_path;
        return probe;
    }

    ManifestData md;
    try {
        md = parseManifestText(text, manifest_path);
    } catch (const ManifestError &err) {
        probe.status = err.status;
        probe.detail = err.msg;
        return probe;
    }
    probe.fingerprint = md.fingerprint;
    probe.tick = md.tick;
    probe.numProcessed = md.numProcessed;

    std::string data;
    if (!slurpFile(dir + "/data.bin", data, /*binary=*/true)) {
        probe.status = CkptIntegrity::MissingData;
        probe.detail = "cannot open " + dir + "/data.bin";
        return probe;
    }

    for (const auto &[name, entry] : md.sections) {
        if (entry.offset + entry.size > data.size()) {
            probe.status = CkptIntegrity::TruncatedSection;
            probe.detail = strprintf(
                "section '%s' (offset %zu, size %zu) extends past "
                "the end of data.bin (%zu bytes)", name.c_str(),
                entry.offset, entry.size, data.size());
            return probe;
        }
        std::uint32_t actual =
            crc32(data.data() + entry.offset, entry.size);
        if (actual != entry.crc) {
            probe.status = CkptIntegrity::CrcMismatch;
            probe.detail = strprintf(
                "section '%s': crc %08x, manifest says %08x",
                name.c_str(), actual, entry.crc);
            return probe;
        }
    }

    probe.status = CkptIntegrity::Ok;
    probe.detail.clear();
    return probe;
}

//
// CheckpointOut
//

void
CheckpointOut::header(const std::string &key, RecordType type)
{
    panic_if(key.empty() || key.size() > 0xffff,
             "checkpoint section '%s': bad key length %zu",
             _section.c_str(), key.size());
    auto [it, inserted] = _seen.emplace(key, type);
    panic_if(!inserted, "checkpoint section '%s': duplicate key '%s'",
             _section.c_str(), key.c_str());
    _buf.push_back(static_cast<char>(type));
    appendLE(_buf, key.size(), 2);
    _buf.append(key);
    ++_numRecords;
}

void
CheckpointOut::raw(const void *bytes, std::size_t n)
{
    _buf.append(static_cast<const char *>(bytes), n);
}

void
CheckpointOut::putU64(const std::string &key, std::uint64_t v)
{
    header(key, RecordType::U64);
    appendLE(_buf, v, 8);
}

void
CheckpointOut::putI64(const std::string &key, std::int64_t v)
{
    header(key, RecordType::I64);
    appendLE(_buf, static_cast<std::uint64_t>(v), 8);
}

void
CheckpointOut::putF64(const std::string &key, double v)
{
    header(key, RecordType::F64);
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    appendLE(_buf, bits, 8);
}

void
CheckpointOut::putBool(const std::string &key, bool v)
{
    header(key, RecordType::Bool);
    _buf.push_back(v ? 1 : 0);
}

void
CheckpointOut::putStr(const std::string &key, const std::string &v)
{
    header(key, RecordType::Str);
    appendLE(_buf, v.size(), 4);
    _buf.append(v);
}

void
CheckpointOut::putBlob(const std::string &key, const void *bytes,
                       std::size_t n)
{
    header(key, RecordType::Blob);
    appendLE(_buf, n, 4);
    raw(bytes, n);
}

void
CheckpointOut::putU64Vec(const std::string &key,
                         const std::vector<std::uint64_t> &v)
{
    header(key, RecordType::U64Vec);
    appendLE(_buf, v.size(), 4);
    for (std::uint64_t x : v)
        appendLE(_buf, x, 8);
}

void
CheckpointOut::putF64Vec(const std::string &key,
                         const std::vector<double> &v)
{
    header(key, RecordType::F64Vec);
    appendLE(_buf, v.size(), 4);
    for (double x : v) {
        std::uint64_t bits;
        std::memcpy(&bits, &x, 8);
        appendLE(_buf, bits, 8);
    }
}

//
// CheckpointIn
//

CheckpointIn::CheckpointIn(std::string section_name, const char *bytes,
                           std::size_t n)
    : _section(std::move(section_name))
{
    std::size_t pos = 0;
    auto need = [&](std::size_t k) {
        fatal_if(pos + k > n,
                 "checkpoint section '%s': truncated at offset %zu",
                 _section.c_str(), pos);
    };
    while (pos < n) {
        need(3);
        auto type = static_cast<RecordType>(
            static_cast<unsigned char>(bytes[pos]));
        fatal_if(static_cast<unsigned>(type) >
                     static_cast<unsigned>(RecordType::F64Vec),
                 "checkpoint section '%s': bad record type %u at "
                 "offset %zu", _section.c_str(),
                 static_cast<unsigned>(type), pos);
        std::size_t key_len = readLE(bytes + pos + 1, 2);
        pos += 3;
        need(key_len);
        std::string key(bytes + pos, key_len);
        pos += key_len;

        std::size_t payload_len = 0;
        switch (type) {
        case RecordType::U64:
        case RecordType::I64:
        case RecordType::F64:
            payload_len = 8;
            break;
        case RecordType::Bool:
            payload_len = 1;
            break;
        case RecordType::Str:
        case RecordType::Blob:
            need(4);
            payload_len = readLE(bytes + pos, 4);
            pos += 4;
            break;
        case RecordType::U64Vec:
        case RecordType::F64Vec:
            need(4);
            payload_len = readLE(bytes + pos, 4) * 8;
            pos += 4;
            break;
        }
        need(payload_len);
        auto [it, inserted] = _records.emplace(
            std::move(key),
            Record{type, std::string(bytes + pos, payload_len)});
        fatal_if(!inserted,
                 "checkpoint section '%s': duplicate key '%s'",
                 _section.c_str(), it->first.c_str());
        pos += payload_len;
    }
}

const CheckpointIn::Record &
CheckpointIn::fetch(const std::string &key, RecordType want) const
{
    auto it = _records.find(key);
    fatal_if(it == _records.end(),
             "checkpoint section '%s': missing key '%s' — the "
             "checkpoint does not match this binary's schema",
             _section.c_str(), key.c_str());
    fatal_if(it->second.type != want,
             "checkpoint section '%s': key '%s' is %s, expected %s",
             _section.c_str(), key.c_str(),
             recordTypeName(it->second.type), recordTypeName(want));
    return it->second;
}

std::uint64_t
CheckpointIn::getU64(const std::string &key) const
{
    return readLE(fetch(key, RecordType::U64).payload.data(), 8);
}

std::int64_t
CheckpointIn::getI64(const std::string &key) const
{
    return static_cast<std::int64_t>(
        readLE(fetch(key, RecordType::I64).payload.data(), 8));
}

double
CheckpointIn::getF64(const std::string &key) const
{
    std::uint64_t bits =
        readLE(fetch(key, RecordType::F64).payload.data(), 8);
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
}

bool
CheckpointIn::getBool(const std::string &key) const
{
    return fetch(key, RecordType::Bool).payload[0] != 0;
}

std::string
CheckpointIn::getStr(const std::string &key) const
{
    return fetch(key, RecordType::Str).payload;
}

const std::string &
CheckpointIn::getBlob(const std::string &key) const
{
    return fetch(key, RecordType::Blob).payload;
}

std::vector<std::uint64_t>
CheckpointIn::getU64Vec(const std::string &key) const
{
    const std::string &p = fetch(key, RecordType::U64Vec).payload;
    std::vector<std::uint64_t> out(p.size() / 8);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = readLE(p.data() + i * 8, 8);
    return out;
}

std::vector<double>
CheckpointIn::getF64Vec(const std::string &key) const
{
    const std::string &p = fetch(key, RecordType::F64Vec).payload;
    std::vector<double> out(p.size() / 8);
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::uint64_t bits = readLE(p.data() + i * 8, 8);
        std::memcpy(&out[i], &bits, 8);
    }
    return out;
}

//
// CheckpointWriter
//

CheckpointWriter::CheckpointWriter(std::string dir,
                                   std::uint64_t config_fingerprint,
                                   Tick tick,
                                   std::uint64_t num_processed)
    : _dir(std::move(dir)), _fingerprint(config_fingerprint),
      _tick(tick), _numProcessed(num_processed)
{
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    fatal_if(static_cast<bool>(ec),
             "cannot create checkpoint directory '%s': %s",
             _dir.c_str(), ec.message().c_str());
}

CheckpointWriter::~CheckpointWriter()
{
    if (!_finalized)
        finalize();
}

CheckpointOut &
CheckpointWriter::section(const std::string &name)
{
    panic_if(_finalized, "checkpoint '%s' already finalized",
             _dir.c_str());
    for (const CheckpointOut &s : _sections)
        panic_if(s.sectionName() == name,
                 "checkpoint '%s': duplicate section '%s'",
                 _dir.c_str(), name.c_str());
    _sections.emplace_back(name);
    return _sections.back();
}

void
CheckpointWriter::finalize()
{
    if (_finalized)
        return;
    _finalized = true;

    std::string data_path = _dir + "/data.bin";
    std::ofstream data(data_path, std::ios::binary);
    fatal_if(!data.is_open(), "cannot write '%s'", data_path.c_str());

    std::ostringstream manifest;
    manifest << "{\n"
             << "  \"format_version\": \"" << checkpointFormatVersion
             << "\",\n"
             << "  \"config_fingerprint\": \"" << _fingerprint
             << "\",\n"
             << "  \"tick\": \"" << _tick << "\",\n"
             << "  \"num_processed\": \"" << _numProcessed << "\",\n"
             << "  \"sections\": [\n";
    std::size_t offset = 0;
    for (std::size_t i = 0; i < _sections.size(); ++i) {
        const CheckpointOut &s = _sections[i];
        data.write(s.bytes().data(),
                   static_cast<std::streamsize>(s.bytes().size()));
        manifest << "    {\"name\": \"" << jsonEscape(s.sectionName())
                 << "\", \"offset\": \"" << offset
                 << "\", \"size\": \"" << s.bytes().size()
                 << "\", \"crc\": \""
                 << crc32(s.bytes().data(), s.bytes().size())
                 << "\"}"
                 << (i + 1 < _sections.size() ? "," : "") << "\n";
        offset += s.bytes().size();
    }
    manifest << "  ]\n}\n";
    data.close();
    fatal_if(data.fail(), "write to '%s' failed", data_path.c_str());

    std::string manifest_path = _dir + "/manifest.json";
    std::ofstream mf(manifest_path);
    fatal_if(!mf.is_open(), "cannot write '%s'",
             manifest_path.c_str());
    mf << manifest.str();
    mf.close();
    fatal_if(mf.fail(), "write to '%s' failed", manifest_path.c_str());
}

//
// CheckpointReader
//

CheckpointReader::CheckpointReader(const std::string &dir) : _dir(dir)
{
    std::string manifest_path = _dir + "/manifest.json";
    std::string text;
    fatal_if(!slurpFile(manifest_path, text, /*binary=*/false),
             "cannot open checkpoint manifest '%s' — is '%s' a "
             "checkpoint directory?", manifest_path.c_str(),
             _dir.c_str());

    ManifestData md;
    try {
        md = parseManifestText(text, manifest_path);
    } catch (const ManifestError &err) {
        fatal("%s", err.msg.c_str());
    }
    _fingerprint = md.fingerprint;
    _tick = md.tick;
    _numProcessed = md.numProcessed;

    std::string data_path = _dir + "/data.bin";
    fatal_if(!slurpFile(data_path, _data, /*binary=*/true),
             "cannot open checkpoint data '%s'", data_path.c_str());

    for (const auto &[name, entry] : md.sections) {
        fatal_if(entry.offset + entry.size > _data.size(),
                 "checkpoint '%s': section '%s' extends past the end "
                 "of data.bin", _dir.c_str(), name.c_str());
        // Strict readers verify too: the probe-then-restore window is
        // short but a checkpoint can rot (or be truncated) between
        // the supervisor's probe and the child's restore.
        std::uint32_t actual =
            crc32(_data.data() + entry.offset, entry.size);
        fatal_if(actual != entry.crc,
                 "checkpoint '%s': section '%s' fails CRC "
                 "verification (%08x, manifest says %08x) — the "
                 "checkpoint is corrupt", _dir.c_str(), name.c_str(),
                 actual, entry.crc);
        _sections.emplace(name,
                          SectionRef{entry.offset, entry.size});
    }
}

bool
CheckpointReader::hasSection(const std::string &name) const
{
    return _sections.count(name) != 0;
}

CheckpointIn
CheckpointReader::section(const std::string &name) const
{
    auto it = _sections.find(name);
    fatal_if(it == _sections.end(),
             "checkpoint '%s': no section '%s' — the checkpointed "
             "topology does not match this configuration",
             _dir.c_str(), name.c_str());
    return CheckpointIn(name, _data.data() + it->second.offset,
                        it->second.size);
}

} // namespace emerald
