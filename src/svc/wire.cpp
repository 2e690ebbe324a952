#include "svc/wire.h"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

#include "common/hash.h"
#include "common/logging.h"
#include "ir/printer.h"

namespace pld {
namespace svc {

namespace {

[[noreturn]] void
wireFail(CompileStage stage, const std::string &what)
{
    Diagnostic d;
    d.code = CompileCode::CacheCorrupt;
    d.stage = stage;
    d.severity = DiagSeverity::Error;
    d.detail = what;
    throw CompileError(std::move(d));
}

/** A transport-level failure (peer died mid-frame, ECONNRESET,
 * EPIPE): retriable — reconnecting reaches a fresh daemon. Decode
 * failures stay non-retriable wireFail()s: resending the same bytes
 * cannot fix a malformed frame. */
[[noreturn]] void
transportFail(const std::string &what)
{
    Diagnostic d;
    d.code = CompileCode::CompileException;
    d.stage = CompileStage::Link;
    d.severity = DiagSeverity::Error;
    d.retriable = true;
    d.detail = what;
    throw CompileError(std::move(d));
}

/** A recv/send deadline (SO_RCVTIMEO/SO_SNDTIMEO) expired: always
 * retriable — the peer may be hung, restarting, or just slow. */
[[noreturn]] void
deadlineFail(const char *what)
{
    Diagnostic d;
    d.code = CompileCode::DeadlineExceeded;
    d.stage = CompileStage::Link;
    d.severity = DiagSeverity::Error;
    d.retriable = true;
    d.detail = std::string(what) +
               " deadline expired waiting for the peer";
    throw CompileError(std::move(d));
}

} // namespace

// ---- byte codec --------------------------------------------------

void
ByteWriter::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteWriter::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteWriter::f64(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteWriter::str(const std::string &s)
{
    u64(s.size());
    buf.insert(buf.end(), s.begin(), s.end());
}

void
ByteWriter::bytes(const std::vector<uint8_t> &b)
{
    u64(b.size());
    buf.insert(buf.end(), b.begin(), b.end());
}

void
ByteReader::fail(const std::string &what) const
{
    wireFail(CompileStage::Cache,
             "wire decode: " + what + " (offset " +
                 std::to_string(off) + " of " + std::to_string(n) +
                 ")");
}

uint8_t
ByteReader::u8()
{
    if (off + 1 > n)
        fail("truncated u8");
    return p[off++];
}

uint32_t
ByteReader::u32()
{
    if (off + 4 > n)
        fail("truncated u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[off + i]) << (8 * i);
    off += 4;
    return v;
}

uint64_t
ByteReader::u64()
{
    if (off + 8 > n)
        fail("truncated u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[off + i]) << (8 * i);
    off += 8;
    return v;
}

double
ByteReader::f64()
{
    uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ByteReader::str()
{
    uint64_t len = u64();
    if (len > remaining())
        fail("string length " + std::to_string(len) +
             " exceeds remaining bytes");
    std::string s(reinterpret_cast<const char *>(p + off),
                  static_cast<size_t>(len));
    off += static_cast<size_t>(len);
    return s;
}

std::vector<uint8_t>
ByteReader::bytes()
{
    uint64_t len = u64();
    if (len > remaining())
        fail("blob length " + std::to_string(len) +
             " exceeds remaining bytes");
    std::vector<uint8_t> b(p + off, p + off + len);
    off += static_cast<size_t>(len);
    return b;
}

// ---- graph text container ---------------------------------------

std::string
encodeGraphText(const ir::Graph &g)
{
    std::ostringstream os;
    os << "pldapp " << g.name << "\n";
    for (const auto &s : g.extInputs)
        os << "extin " << s << "\n";
    for (const auto &s : g.extOutputs)
        os << "extout " << s << "\n";
    for (const auto &inst : g.ops) {
        std::string body = ir::printOperator(inst.fn);
        size_t lines = 0;
        for (char c : body)
            lines += (c == '\n');
        os << "op " << inst.instName << " " << lines << "\n" << body;
    }
    for (const auto &l : g.links) {
        os << "link " << l.src.op << " " << l.src.port << " "
           << l.dst.op << " " << l.dst.port << " " << l.depth
           << "\n";
    }
    os << "end\n";
    return os.str();
}

namespace {

[[noreturn]] void
graphFail(int line_no, const std::string &what)
{
    wireFail(CompileStage::Link,
             "graph text line " + std::to_string(line_no) + ": " +
                 what);
}

} // namespace

ir::Graph
decodeGraphText(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    int line_no = 0;
    auto next = [&]() -> bool {
        ++line_no;
        return static_cast<bool>(std::getline(is, line));
    };

    if (!next() || line.rfind("pldapp ", 0) != 0)
        graphFail(line_no, "expected 'pldapp <name>' header");
    ir::Graph g(line.substr(7));

    bool sawEnd = false;
    while (next()) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string kw;
        ls >> kw;
        if (kw == "extin") {
            std::string name;
            if (!(ls >> name))
                graphFail(line_no, "extin needs a stream name");
            g.addExtInput(name);
        } else if (kw == "extout") {
            std::string name;
            if (!(ls >> name))
                graphFail(line_no, "extout needs a stream name");
            g.addExtOutput(name);
        } else if (kw == "op") {
            std::string inst;
            long nlines = -1;
            if (!(ls >> inst >> nlines) || nlines < 1)
                graphFail(line_no, "expected 'op <inst> <numLines>'");
            std::string body;
            for (long i = 0; i < nlines; ++i) {
                if (!next())
                    graphFail(line_no,
                              "operator body truncated (wanted " +
                                  std::to_string(nlines) + " lines)");
                body += line;
                body += '\n';
            }
            g.addOperator(ir::parseOperator(body), inst);
        } else if (kw == "link") {
            ir::Link l;
            if (!(ls >> l.src.op >> l.src.port >> l.dst.op >>
                  l.dst.port >> l.depth))
                graphFail(line_no,
                          "expected 'link <srcOp> <srcPort> <dstOp> "
                          "<dstPort> <depth>'");
            int nops = static_cast<int>(g.ops.size());
            if (l.src.op < -1 || l.src.op >= nops || l.dst.op < -1 ||
                l.dst.op >= nops)
                graphFail(line_no, "link references unknown operator");
            g.links.push_back(l);
        } else if (kw == "end") {
            sawEnd = true;
            break;
        } else {
            graphFail(line_no, "unknown keyword '" + kw + "'");
        }
    }
    if (!sawEnd)
        graphFail(line_no, "missing 'end' terminator");
    return g;
}

// ---- canonical build artifact ------------------------------------

namespace {

void
encodeElf(ByteWriter &w, const rv32::PldElf &e)
{
    w.u32(e.entry);
    w.u32(e.memBytes);
    w.u64(e.text.size());
    for (uint32_t word : e.text)
        w.u32(word);
    w.u32(e.dataBase);
    w.bytes(e.data);
    w.i32(e.pageNum);
}

rv32::PldElf
decodeElf(ByteReader &r)
{
    rv32::PldElf e;
    e.entry = r.u32();
    e.memBytes = r.u32();
    uint64_t nwords = r.u64();
    // Divide, not multiply: nwords * 4 wraps for counts >= 2^62.
    if (nwords > r.remaining() / 4)
        wireFail(CompileStage::Cache, "elf text overruns blob");
    e.text.reserve(static_cast<size_t>(nwords));
    for (uint64_t i = 0; i < nwords; ++i)
        e.text.push_back(r.u32());
    e.dataBase = r.u32();
    e.data = r.bytes();
    e.pageNum = r.i32();
    return e;
}

void
encodeBinding(ByteWriter &w, const sys::PageBinding &b)
{
    w.i32(b.opIdx);
    w.i32(b.pageId);
    w.u8(static_cast<uint8_t>(b.impl));
    w.f64(b.cyclesPerOp);
    encodeElf(w, b.elf);
    w.u64(b.imageBytes);
    w.u64(b.imageHash);
    w.u8(b.hasFallback ? 1 : 0);
    encodeElf(w, b.fallbackElf);
}

sys::PageBinding
decodeBinding(ByteReader &r)
{
    sys::PageBinding b;
    b.opIdx = r.i32();
    b.pageId = r.i32();
    b.impl = static_cast<sys::PageImpl>(r.u8());
    b.cyclesPerOp = r.f64();
    b.elf = decodeElf(r);
    b.imageBytes = r.u64();
    b.imageHash = r.u64();
    b.hasFallback = r.u8() != 0;
    b.fallbackElf = decodeElf(r);
    return b;
}

constexpr uint32_t kArtifactMagic = 0x504C4441; // "PLDA"
constexpr uint32_t kArtifactVersion = 1;

} // namespace

BuildArtifact
BuildArtifact::fromAppBuild(const flow::AppBuild &b)
{
    BuildArtifact a;
    a.level = static_cast<uint8_t>(b.level);
    a.fmaxMHz = b.fmaxMHz;
    a.pagesUsed = b.pagesUsed;
    a.totalBitstreamBytes = b.totalBitstreamBytes;
    a.useNoc = b.sysCfg.useNoc;
    for (const auto &op : b.ops) {
        OpSummary s;
        s.name = op.name;
        s.irHash = op.irHash;
        s.target = static_cast<uint8_t>(op.target);
        s.page = op.page;
        s.softcoreTier = static_cast<uint8_t>(op.softcoreTier);
        s.finalCode = static_cast<uint8_t>(op.outcome.finalCode);
        s.degraded = op.outcome.degraded;
        s.failed = op.outcome.failed;
        a.ops.push_back(std::move(s));
    }
    a.bindings = b.bindings;
    return a;
}

flow::AppBuild
BuildArtifact::toSkeletonAppBuild() const
{
    flow::AppBuild b;
    b.level = static_cast<flow::OptLevel>(level);
    b.fmaxMHz = fmaxMHz;
    b.pagesUsed = pagesUsed;
    b.totalBitstreamBytes = totalBitstreamBytes;
    b.sysCfg.useNoc = useNoc;
    for (const auto &s : ops) {
        flow::OperatorArtifact op;
        op.name = s.name;
        op.irHash = s.irHash;
        op.target = static_cast<ir::Target>(s.target);
        op.page = s.page;
        b.ops.push_back(std::move(op));
    }
    b.bindings = bindings;
    return b;
}

std::vector<uint8_t>
BuildArtifact::encode() const
{
    ByteWriter w;
    w.u32(kArtifactMagic);
    w.u32(kArtifactVersion);
    w.u8(level);
    w.f64(fmaxMHz);
    w.i32(pagesUsed);
    w.u64(totalBitstreamBytes);
    w.u8(useNoc ? 1 : 0);
    w.u64(ops.size());
    for (const auto &s : ops) {
        w.str(s.name);
        w.u64(s.irHash);
        w.u8(s.target);
        w.i32(s.page);
        w.u8(s.softcoreTier);
        w.u8(s.finalCode);
        w.u8(s.degraded ? 1 : 0);
        w.u8(s.failed ? 1 : 0);
    }
    w.u64(bindings.size());
    for (const auto &b : bindings)
        encodeBinding(w, b);
    return w.take();
}

BuildArtifact
BuildArtifact::decode(const std::vector<uint8_t> &blob)
{
    ByteReader r(blob);
    if (r.u32() != kArtifactMagic)
        wireFail(CompileStage::Cache, "bad artifact magic");
    if (r.u32() != kArtifactVersion)
        wireFail(CompileStage::Cache, "unsupported artifact version");
    BuildArtifact a;
    a.level = r.u8();
    a.fmaxMHz = r.f64();
    a.pagesUsed = r.i32();
    a.totalBitstreamBytes = r.u64();
    a.useNoc = r.u8() != 0;
    uint64_t nops = r.u64();
    for (uint64_t i = 0; i < nops; ++i) {
        OpSummary s;
        s.name = r.str();
        s.irHash = r.u64();
        s.target = r.u8();
        s.page = r.i32();
        s.softcoreTier = r.u8();
        s.finalCode = r.u8();
        s.degraded = r.u8() != 0;
        s.failed = r.u8() != 0;
        a.ops.push_back(std::move(s));
    }
    uint64_t nbind = r.u64();
    for (uint64_t i = 0; i < nbind; ++i)
        a.bindings.push_back(decodeBinding(r));
    if (!r.done())
        wireFail(CompileStage::Cache,
                 "trailing bytes after artifact");
    return a;
}

std::vector<uint8_t>
SwapBlob::encode() const
{
    ByteWriter w;
    w.u32(kArtifactMagic);
    w.u32(kArtifactVersion);
    w.str(op);
    w.u8(fnChanged ? 1 : 0);
    encodeBinding(w, binding);
    return w.take();
}

SwapBlob
SwapBlob::decode(const std::vector<uint8_t> &blob)
{
    ByteReader r(blob);
    if (r.u32() != kArtifactMagic)
        wireFail(CompileStage::Cache, "bad swap-artifact magic");
    if (r.u32() != kArtifactVersion)
        wireFail(CompileStage::Cache,
                 "unsupported swap-artifact version");
    SwapBlob s;
    s.op = r.str();
    s.fnChanged = r.u8() != 0;
    s.binding = decodeBinding(r);
    return s;
}

// ---- framing -----------------------------------------------------

namespace {

bool
readExact(int fd, uint8_t *dst, size_t n, bool eof_ok)
{
    size_t got = 0;
    while (got < n) {
        ssize_t r = ::read(fd, dst + got, n - got);
        if (r == 0) {
            if (eof_ok && got == 0)
                return false;
            transportFail("connection closed mid-frame");
        }
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                deadlineFail("recv");
            transportFail(std::string("read: ") +
                          std::strerror(errno));
        }
        got += static_cast<size_t>(r);
    }
    return true;
}

} // namespace

bool
readFrame(int fd, std::vector<uint8_t> *payload)
{
    uint8_t hdr[4];
    if (!readExact(fd, hdr, 4, /*eof_ok=*/true))
        return false;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<uint32_t>(hdr[i]) << (8 * i);
    if (len > kMaxFrameBytes)
        wireFail(CompileStage::Link,
                 "frame length " + std::to_string(len) +
                     " exceeds cap");
    payload->resize(len);
    if (len > 0)
        readExact(fd, payload->data(), len, /*eof_ok=*/false);
    return true;
}

void
writeFrame(int fd, const std::vector<uint8_t> &payload)
{
    if (payload.size() > kMaxFrameBytes)
        wireFail(CompileStage::Link, "frame payload exceeds cap");
    uint32_t len = static_cast<uint32_t>(payload.size());
    std::vector<uint8_t> out;
    out.reserve(4 + payload.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(len >> (8 * i)));
    out.insert(out.end(), payload.begin(), payload.end());
    size_t sent = 0;
    while (sent < out.size()) {
        // MSG_NOSIGNAL: a dead client produces EPIPE, not SIGPIPE —
        // the daemon drops the response, never the process.
        ssize_t r = ::send(fd, out.data() + sent, out.size() - sent,
                           MSG_NOSIGNAL);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                deadlineFail("send");
            transportFail(std::string("send: ") +
                          std::strerror(errno));
        }
        sent += static_cast<size_t>(r);
    }
}

// ---- messages ----------------------------------------------------

void
RequestOptions::encodeInto(ByteWriter &w) const
{
    w.u8(level);
    w.u64(seed);
    w.f64(effort);
    w.u32(parallelJobs);
    w.u8(softcoreTier);
    w.str(faultSpec);
    w.str(traceFile);
}

RequestOptions
RequestOptions::decodeFrom(ByteReader &r)
{
    RequestOptions o;
    o.level = r.u8();
    o.seed = r.u64();
    o.effort = r.f64();
    o.parallelJobs = r.u32();
    o.softcoreTier = r.u8();
    o.faultSpec = r.str();
    o.traceFile = r.str();
    return o;
}

std::vector<uint8_t>
CompileRequest::encode() const
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(MsgType::CompileReq));
    opts.encodeInto(w);
    w.str(graphText);
    return w.take();
}

CompileRequest
CompileRequest::decode(ByteReader &r)
{
    CompileRequest req;
    req.opts = RequestOptions::decodeFrom(r);
    req.graphText = r.str();
    return req;
}

std::vector<uint8_t>
SwapRequest::encode() const
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(MsgType::SwapReq));
    opts.encodeInto(w);
    w.u64(baseBuild);
    w.str(opName);
    w.str(graphText);
    return w.take();
}

SwapRequest
SwapRequest::decode(ByteReader &r)
{
    SwapRequest req;
    req.opts = RequestOptions::decodeFrom(r);
    req.baseBuild = r.u64();
    req.opName = r.str();
    req.graphText = r.str();
    return req;
}

void
encodeDiags(ByteWriter &w, const CompileStatus &st)
{
    w.u64(st.diags.size());
    for (const auto &d : st.diags) {
        w.u8(static_cast<uint8_t>(d.code));
        w.u8(static_cast<uint8_t>(d.stage));
        w.u8(static_cast<uint8_t>(d.severity));
        w.str(d.op);
        w.i32(d.page);
        w.u8(d.retriable ? 1 : 0);
        w.str(d.detail);
    }
}

CompileStatus
decodeDiags(ByteReader &r)
{
    CompileStatus st;
    uint64_t n = r.u64();
    for (uint64_t i = 0; i < n; ++i) {
        Diagnostic d;
        d.code = static_cast<CompileCode>(r.u8());
        d.stage = static_cast<CompileStage>(r.u8());
        d.severity = static_cast<DiagSeverity>(r.u8());
        d.op = r.str();
        d.page = r.i32();
        d.retriable = r.u8() != 0;
        d.detail = r.str();
        st.diags.push_back(std::move(d));
    }
    return st;
}

std::vector<uint8_t>
CompileResponse::encode() const
{
    ByteWriter w;
    w.u8(msgType);
    w.u8(static_cast<uint8_t>(status));
    w.u64(key);
    w.u8(storeHit ? 1 : 0);
    w.u8(coalesced ? 1 : 0);
    w.f64(seconds);
    encodeDiags(w, diags);
    w.bytes(blob);
    return w.take();
}

CompileResponse
CompileResponse::decode(ByteReader &r, uint8_t msg_type)
{
    CompileResponse resp;
    resp.msgType = msg_type;
    resp.status = static_cast<RespStatus>(r.u8());
    resp.key = r.u64();
    resp.storeHit = r.u8() != 0;
    resp.coalesced = r.u8() != 0;
    resp.seconds = r.f64();
    resp.diags = decodeDiags(r);
    resp.blob = r.bytes();
    return resp;
}

} // namespace svc
} // namespace pld
