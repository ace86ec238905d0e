#include "net/parser.h"

#include <utility>

#include "net/bytes.h"

namespace sugar::net {
namespace {

ParseOutcome fail(ParseError e) { return {.parsed = std::nullopt, .error = e}; }

bool parse_tcp_options(ByteReader& r, std::size_t options_len, TcpOptions& out) {
  std::size_t end = r.offset() + options_len;
  while (r.offset() < end && r.ok()) {
    std::uint8_t kind = r.u8();
    if (kind == 0) break;      // EOL
    if (kind == 1) continue;   // NOP
    std::uint8_t len = r.u8();
    if (!r.ok() || len < 2 || r.offset() + (len - 2) > end) return false;
    switch (kind) {
      case 2:  // MSS
        if (len != 4) return false;
        out.mss = r.u16be();
        break;
      case 3:  // window scale
        if (len != 3) return false;
        out.window_scale = r.u8();
        break;
      case 4:  // SACK permitted
        if (len != 2) return false;
        out.sack_permitted = true;
        break;
      case 8: {  // timestamps
        if (len != 10) return false;
        std::uint32_t val = r.u32be();
        std::uint32_t ecr = r.u32be();
        out.timestamp = {val, ecr};
        break;
      }
      default: {
        std::vector<std::uint8_t> raw(static_cast<std::size_t>(len - 2));
        if (!r.bytes(raw.data(), raw.size())) return false;
        out.unknown.emplace_back(kind, std::move(raw));
        break;
      }
    }
  }
  return r.ok();
}

}  // namespace

std::string to_string(ParseError e) {
  switch (e) {
    case ParseError::TruncatedEthernet: return "truncated-ethernet";
    case ParseError::TruncatedArp: return "truncated-arp";
    case ParseError::TruncatedIpv4: return "truncated-ipv4";
    case ParseError::BadIpv4Header: return "bad-ipv4-header";
    case ParseError::TruncatedIpv6: return "truncated-ipv6";
    case ParseError::TruncatedTcp: return "truncated-tcp";
    case ParseError::BadTcpHeader: return "bad-tcp-header";
    case ParseError::TruncatedUdp: return "truncated-udp";
    case ParseError::TruncatedIcmp: return "truncated-icmp";
    case ParseError::kCount: break;
  }
  return "?";
}

ParseOutcome parse_packet(const Packet& pkt) {
  ByteReader r{pkt.bytes()};
  ParsedPacket out;

  if (r.remaining() < EthernetHeader::kSize) return fail(ParseError::TruncatedEthernet);
  EthernetHeader eth;
  r.bytes(eth.dst.octets.data(), 6);
  r.bytes(eth.src.octets.data(), 6);
  eth.ether_type = r.u16be();
  out.eth = eth;
  out.l3_offset = r.offset();

  if (eth.ether_type == static_cast<std::uint16_t>(EtherType::Arp)) {
    if (r.remaining() < ArpHeader::kSize) return fail(ParseError::TruncatedArp);
    ArpHeader arp;
    arp.hw_type = r.u16be();
    arp.proto_type = r.u16be();
    arp.hw_len = r.u8();
    arp.proto_len = r.u8();
    arp.opcode = r.u16be();
    r.bytes(arp.sender_mac.octets.data(), 6);
    arp.sender_ip.value = r.u32be();
    r.bytes(arp.target_mac.octets.data(), 6);
    arp.target_ip.value = r.u32be();
    out.arp = arp;
    return {.parsed = std::move(out), .error = std::nullopt};
  }

  std::uint8_t l4_proto = 0;
  std::size_t l4_len_available = 0;

  if (eth.ether_type == static_cast<std::uint16_t>(EtherType::Ipv4)) {
    if (r.remaining() < 20) return fail(ParseError::TruncatedIpv4);
    Ipv4Header ip;
    std::uint8_t vihl = r.u8();
    ip.version = vihl >> 4;
    ip.ihl = vihl & 0xF;
    if (ip.version != 4 || ip.ihl < 5) return fail(ParseError::BadIpv4Header);
    ip.tos = r.u8();
    ip.total_length = r.u16be();
    ip.identification = r.u16be();
    std::uint16_t frag = r.u16be();
    ip.dont_fragment = (frag & 0x4000) != 0;
    ip.more_fragments = (frag & 0x2000) != 0;
    ip.fragment_offset = frag & 0x1FFF;
    ip.ttl = r.u8();
    ip.protocol = r.u8();
    ip.header_checksum = r.u16be();
    ip.src.value = r.u32be();
    ip.dst.value = r.u32be();
    if (ip.header_len() > 20) {
      if (r.remaining() < ip.header_len() - 20) return fail(ParseError::TruncatedIpv4);
      r.skip(ip.header_len() - 20);  // IPv4 options are skipped, not decoded
    }
    if (ip.total_length < ip.header_len()) return fail(ParseError::BadIpv4Header);
    out.ipv4 = ip;
    out.l4_offset = r.offset();
    l4_proto = ip.protocol;
    // Trust the shorter of the IP total length and the captured bytes.
    std::size_t ip_payload = ip.total_length - ip.header_len();
    l4_len_available = std::min<std::size_t>(ip_payload, r.remaining());
  } else if (eth.ether_type == static_cast<std::uint16_t>(EtherType::Ipv6)) {
    if (r.remaining() < Ipv6Header::kSize) return fail(ParseError::TruncatedIpv6);
    Ipv6Header ip;
    std::uint32_t vtcfl = r.u32be();
    ip.version = static_cast<std::uint8_t>(vtcfl >> 28);
    ip.traffic_class = static_cast<std::uint8_t>(vtcfl >> 20);
    ip.flow_label = vtcfl & 0xFFFFF;
    ip.payload_length = r.u16be();
    ip.next_header = r.u8();
    ip.hop_limit = r.u8();
    r.bytes(ip.src.octets.data(), 16);
    r.bytes(ip.dst.octets.data(), 16);
    out.ipv6 = ip;
    out.l4_offset = r.offset();
    l4_proto = ip.next_header;
    l4_len_available = std::min<std::size_t>(ip.payload_length, r.remaining());
  } else {
    // Unknown L3 (LLC, vendor protocols): stop after Ethernet.
    return {.parsed = std::move(out), .error = std::nullopt};
  }

  switch (static_cast<IpProto>(l4_proto)) {
    case IpProto::Tcp: {
      if (l4_len_available < 20) return fail(ParseError::TruncatedTcp);
      TcpHeader tcp;
      tcp.src_port = r.u16be();
      tcp.dst_port = r.u16be();
      tcp.seq = r.u32be();
      tcp.ack = r.u32be();
      std::uint8_t off_rsvd = r.u8();
      tcp.data_offset = off_rsvd >> 4;
      if (tcp.data_offset < 5) return fail(ParseError::BadTcpHeader);
      tcp.set_flags_byte(r.u8());
      tcp.window = r.u16be();
      tcp.checksum = r.u16be();
      tcp.urgent_pointer = r.u16be();
      std::size_t options_len = tcp.header_len() - 20;
      if (options_len > 0) {
        if (l4_len_available < tcp.header_len()) return fail(ParseError::TruncatedTcp);
        if (!parse_tcp_options(r, options_len, tcp.options))
          return fail(ParseError::BadTcpHeader);
        r.seek(out.l4_offset + tcp.header_len());
      }
      out.tcp = tcp;
      out.payload_offset = out.l4_offset + tcp.header_len();
      out.payload_len = l4_len_available - tcp.header_len();
      break;
    }
    case IpProto::Udp: {
      if (l4_len_available < UdpHeader::kSize) return fail(ParseError::TruncatedUdp);
      UdpHeader udp;
      udp.src_port = r.u16be();
      udp.dst_port = r.u16be();
      udp.length = r.u16be();
      udp.checksum = r.u16be();
      out.udp = udp;
      out.payload_offset = out.l4_offset + UdpHeader::kSize;
      out.payload_len = l4_len_available - UdpHeader::kSize;
      break;
    }
    case IpProto::Icmp:
    case IpProto::Icmpv6: {
      if (l4_len_available < IcmpHeader::kSize) return fail(ParseError::TruncatedIcmp);
      IcmpHeader icmp;
      icmp.type = r.u8();
      icmp.code = r.u8();
      icmp.checksum = r.u16be();
      icmp.rest = r.u32be();
      out.icmp = icmp;
      out.payload_offset = out.l4_offset + IcmpHeader::kSize;
      out.payload_len = l4_len_available - IcmpHeader::kSize;
      break;
    }
    default:
      // IGMP and friends: L3 decoded, L4 opaque.
      break;
  }

  return {.parsed = std::move(out), .error = std::nullopt};
}

SpuriousCategory classify_spurious(const ParsedPacket& p) {
  if (p.arp) return SpuriousCategory::NetworkManagement;
  if (p.eth && !p.has_ip()) return SpuriousCategory::LinkManagement;  // LLC etc.
  if (p.icmp) return SpuriousCategory::NetworkManagement;
  std::uint8_t proto = p.ip_protocol();
  if (proto == static_cast<std::uint8_t>(IpProto::Igmp))
    return SpuriousCategory::NetworkManagement;

  auto port_is = [&](std::uint16_t port) {
    return (p.src_port() && *p.src_port() == port) ||
           (p.dst_port() && *p.dst_port() == port);
  };

  if (p.udp) {
    if (port_is(ports::kLlmnr) || port_is(ports::kNbns) || port_is(ports::kMdns) ||
        port_is(ports::kBtLsd))
      return SpuriousCategory::LinkLocal;
    if (port_is(ports::kDhcpServer) || port_is(ports::kDhcpClient) ||
        port_is(ports::kDhcpv6Client) || port_is(ports::kDhcpv6Server) ||
        port_is(ports::kSnmp))
      return SpuriousCategory::NetworkManagement;
    if (port_is(ports::kStun) || port_is(ports::kNatPmp)) return SpuriousCategory::Nat;
    if (port_is(ports::kDbLsp)) return SpuriousCategory::RouteManagement;
    if (port_is(ports::kSsdp)) return SpuriousCategory::ServiceManagement;
    if (port_is(ports::kRtcp)) return SpuriousCategory::RealTime;
    if (port_is(ports::kNtp)) return SpuriousCategory::NetworkTime;
    if (port_is(ports::kCoap)) return SpuriousCategory::IotManagement;
    if (port_is(ports::kQuake3)) return SpuriousCategory::Quake;
  }
  if (p.tcp) {
    if (port_is(ports::kBgp)) return SpuriousCategory::RouteManagement;
    if (port_is(ports::kVnc) || port_is(ports::kX11) || port_is(ports::kMsnms))
      return SpuriousCategory::RemoteAccess;
    if (port_is(ports::kMqtt)) return SpuriousCategory::IotManagement;
    if (port_is(ports::kBitcoin)) return SpuriousCategory::Others;
  }
  return SpuriousCategory::None;
}

}  // namespace sugar::net
