#include "svc/snapshot.hh"

#include <string>

#include "common/rng.hh"
#include "sim/scenario.hh"

namespace ctamem::svc {

namespace {

/** "CTAMSNAP" read as a little-endian u64. */
constexpr std::uint64_t kMagic = 0x50414e534d415443ULL;

/** Little-endian append-only blob writer. */
class Writer
{
  public:
    void
    u8(std::uint8_t value)
    {
        bytes_.push_back(value);
    }

    void
    u32(std::uint32_t value)
    {
        for (int shift = 0; shift < 32; shift += 8)
            bytes_.push_back((value >> shift) & 0xff);
    }

    void
    u64(std::uint64_t value)
    {
        for (int shift = 0; shift < 64; shift += 8)
            bytes_.push_back((value >> shift) & 0xff);
    }

    void
    raw(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const std::uint8_t *>(data);
        bytes_.insert(bytes_.end(), bytes, bytes + size);
    }

    void
    str(const std::string &value)
    {
        u32(static_cast<std::uint32_t>(value.size()));
        raw(value.data(), value.size());
    }

    void
    spanList(const std::vector<mm::FrameSpan> &spans)
    {
        u32(static_cast<std::uint32_t>(spans.size()));
        for (const mm::FrameSpan &span : spans) {
            u64(span.basePfn);
            u64(span.frames);
        }
    }

    std::vector<std::uint8_t>
    finish()
    {
        const std::uint64_t checksum =
            hashBytes(bytes_.data(), bytes_.size());
        u64(checksum);
        return std::move(bytes_);
    }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian blob reader. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t value = 0;
        for (int shift = 0; shift < 32; shift += 8)
            value |= std::uint32_t{data_[pos_++]} << shift;
        return value;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t value = 0;
        for (int shift = 0; shift < 64; shift += 8)
            value |= std::uint64_t{data_[pos_++]} << shift;
        return value;
    }

    std::string
    str()
    {
        const std::uint32_t size = u32();
        need(size);
        std::string value(reinterpret_cast<const char *>(data_ + pos_),
                          size);
        pos_ += size;
        return value;
    }

    std::vector<std::uint8_t>
    bytes(std::size_t size)
    {
        need(size);
        std::vector<std::uint8_t> value(data_ + pos_,
                                        data_ + pos_ + size);
        pos_ += size;
        return value;
    }

    std::vector<mm::FrameSpan>
    spanList()
    {
        const std::uint32_t count = u32();
        // Each span is 16 bytes; reject counts the blob cannot hold
        // before allocating.
        need(static_cast<std::size_t>(count) * 16);
        std::vector<mm::FrameSpan> spans;
        spans.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            mm::FrameSpan span;
            span.basePfn = u64();
            span.frames = u64();
            spans.push_back(span);
        }
        return spans;
    }

    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }

  private:
    void
    need(std::size_t count)
    {
        if (size_ - pos_ < count)
            throw SnapshotError("snapshot blob truncated");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace

MachineSnapshot
captureSnapshot(sim::Machine &machine)
{
    MachineSnapshot snapshot;
    snapshot.config = machine.config();
    snapshot.image = machine.kernel().bootImage();
    if (defense::ObserverDefense *observer = machine.observer())
        snapshot.observerRng = observer->rngState();

    const dram::SparseStore &store = machine.dram().store();
    const std::vector<Pfn> pfns = store.touchedFrames();
    snapshot.frames.reserve(pfns.size());
    for (const Pfn pfn : pfns) {
        MachineSnapshot::Frame frame;
        frame.pfn = pfn;
        frame.bytes.resize(pageSize);
        store.read(pfnToAddr(pfn), frame.bytes.data(), pageSize);
        snapshot.frames.push_back(std::move(frame));
    }
    return snapshot;
}

std::unique_ptr<sim::Machine>
restoreMachine(const MachineSnapshot &snapshot)
{
    auto machine = std::make_unique<sim::Machine>(snapshot.config,
                                                  snapshot.image);
    dram::SparseStore &store = machine->dram().store();
    store.clear();
    for (const MachineSnapshot::Frame &frame : snapshot.frames) {
        store.write(pfnToAddr(frame.pfn), frame.bytes.data(),
                    frame.bytes.size());
    }
    if (!snapshot.observerRng.empty()) {
        if (defense::ObserverDefense *observer = machine->observer())
            observer->setRngState(snapshot.observerRng);
    }
    return machine;
}

std::vector<std::uint8_t>
serialize(const MachineSnapshot &snapshot)
{
    Writer writer;
    writer.u64(kMagic);
    writer.u32(kSnapshotVersion);
    writer.str(sim::toJson(snapshot.config).dump());

    const kernel::BootImage &image = snapshot.image;
    writer.u8(image.ptpLayout ? 1 : 0);
    if (image.ptpLayout) {
        const cta::PtpLayout &layout = *image.ptpLayout;
        writer.u64(layout.lowWaterMark);
        writer.u64(layout.trueBytes);
        writer.u64(layout.skippedAntiBytes);
        writer.u64(layout.screenedFrames);
        writer.u8(layout.multiLevel ? 1 : 0);
        writer.spanList(layout.spans);
        for (unsigned level = 1; level <= 4; ++level)
            writer.spanList(layout.levelSpans[level]);
    }

    writer.u32(static_cast<std::uint32_t>(image.physSpecs.size()));
    for (const mm::ZoneSpec &spec : image.physSpecs) {
        writer.u8(static_cast<std::uint8_t>(spec.id));
        writer.spanList(spec.spans);
    }
    writer.u64(image.secretPfn);
    writer.u64(image.secretAddr);
    writer.u64(image.simTime);

    writer.u32(static_cast<std::uint32_t>(
        snapshot.observerRng.size()));
    for (const std::uint64_t word : snapshot.observerRng)
        writer.u64(word);

    writer.u32(static_cast<std::uint32_t>(snapshot.frames.size()));
    for (const MachineSnapshot::Frame &frame : snapshot.frames) {
        writer.u64(frame.pfn);
        writer.raw(frame.bytes.data(), frame.bytes.size());
    }
    return writer.finish();
}

MachineSnapshot
deserialize(const std::uint8_t *data, std::size_t size)
{
    if (size < 8 + 4 + 8)
        throw SnapshotError("snapshot blob truncated");

    // Validate the checksum before interpreting anything else: every
    // corruption mode, not just ones that trip a bounds check, must
    // be rejected.
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= std::uint64_t{data[size - 8 + i]} << (8 * i);
    if (hashBytes(data, size - 8) != stored)
        throw SnapshotError("snapshot blob checksum mismatch");

    Reader reader(data, size - 8);
    if (reader.u64() != kMagic)
        throw SnapshotError("not a snapshot blob (bad magic)");
    const std::uint32_t version = reader.u32();
    if (version != kSnapshotVersion) {
        throw SnapshotError("snapshot blob version " +
                            std::to_string(version) +
                            " is not supported (this build writes " +
                            std::to_string(kSnapshotVersion) + ")");
    }

    MachineSnapshot snapshot;
    try {
        snapshot.config = sim::machineConfigFromJson(
            json::Json::parse(reader.str()));
    } catch (const json::JsonError &err) {
        throw SnapshotError(std::string("snapshot config: ") +
                            err.what());
    }

    if (reader.u8()) {
        cta::PtpLayout layout;
        layout.lowWaterMark = reader.u64();
        layout.trueBytes = reader.u64();
        layout.skippedAntiBytes = reader.u64();
        layout.screenedFrames = reader.u64();
        layout.multiLevel = reader.u8() != 0;
        layout.spans = reader.spanList();
        for (unsigned level = 1; level <= 4; ++level)
            layout.levelSpans[level] = reader.spanList();
        snapshot.image.ptpLayout = std::move(layout);
    }

    const std::uint32_t specCount = reader.u32();
    snapshot.image.physSpecs.reserve(specCount);
    for (std::uint32_t i = 0; i < specCount; ++i) {
        mm::ZoneSpec spec;
        const std::uint8_t id = reader.u8();
        if (id >= static_cast<std::uint8_t>(mm::ZoneId::NumZones))
            throw SnapshotError("snapshot blob names an unknown zone");
        spec.id = static_cast<mm::ZoneId>(id);
        spec.spans = reader.spanList();
        snapshot.image.physSpecs.push_back(std::move(spec));
    }
    snapshot.image.secretPfn = reader.u64();
    snapshot.image.secretAddr = reader.u64();
    snapshot.image.simTime = reader.u64();

    const std::uint32_t rngWords = reader.u32();
    snapshot.observerRng.reserve(rngWords);
    for (std::uint32_t i = 0; i < rngWords; ++i)
        snapshot.observerRng.push_back(reader.u64());

    const std::uint32_t frameCount = reader.u32();
    snapshot.frames.reserve(frameCount);
    for (std::uint32_t i = 0; i < frameCount; ++i) {
        MachineSnapshot::Frame frame;
        frame.pfn = reader.u64();
        frame.bytes = reader.bytes(pageSize);
        snapshot.frames.push_back(std::move(frame));
    }

    if (reader.remaining() != 0)
        throw SnapshotError("snapshot blob has trailing bytes");
    return snapshot;
}

} // namespace ctamem::svc
