#pragma once

/// \file http_client.hpp
/// \brief Blocking loopback HTTP/1.1 client with Content-Length framing, so
///        any number of responses can be read off one keep-alive connection.

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace e2e
{

/// One response as it arrived on the wire.
struct http_reply
{
    int status{0};
    std::string content_type;
    /// Unquoted ETag ("" when absent).
    std::string etag;
    std::string body;
};

/// `GET <target>` on a keep-alive connection.
[[nodiscard]] inline std::string get_request(const std::string& target)
{
    return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

class http_client
{
public:
    explicit http_client(const std::uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
        {
            throw std::runtime_error{"socket() failed"};
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0)
        {
            const std::string reason = std::strerror(errno);
            ::close(fd);
            throw std::runtime_error{"connect() failed: " + reason};
        }
    }

    ~http_client()
    {
        ::close(fd);
    }

    http_client(const http_client&) = delete;
    http_client& operator=(const http_client&) = delete;

    void send_all(const std::string& bytes) const
    {
        std::size_t sent = 0;
        while (sent < bytes.size())
        {
            const auto n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
            {
                throw std::runtime_error{"send() failed"};
            }
            sent += static_cast<std::size_t>(n);
        }
    }

    /// Reads exactly one response.
    http_reply read_reply()
    {
        std::size_t head_end = buffered.find("\r\n\r\n");
        while (head_end == std::string::npos)
        {
            fill_more();
            head_end = buffered.find("\r\n\r\n");
        }
        const std::string head = buffered.substr(0, head_end + 2);  // keep the last header's CRLF
        buffered.erase(0, head_end + 4);

        if (head.size() < 12 || head.compare(0, 9, "HTTP/1.1 ") != 0)
        {
            throw std::runtime_error{"malformed status line"};
        }
        http_reply reply{};
        reply.status = std::stoi(head.substr(9, 3));
        reply.content_type = header(head, "Content-Type");
        reply.etag = header(head, "ETag");
        if (reply.etag.size() >= 2 && reply.etag.front() == '"' && reply.etag.back() == '"')
        {
            reply.etag = reply.etag.substr(1, reply.etag.size() - 2);
        }
        const auto length_field = header(head, "Content-Length");
        const std::size_t length = length_field.empty() ? 0 : std::stoul(length_field);
        while (buffered.size() < length)
        {
            fill_more();
        }
        reply.body = buffered.substr(0, length);
        buffered.erase(0, length);
        return reply;
    }

private:
    /// Value of header \p name in \p head ("" when absent).
    [[nodiscard]] static std::string header(const std::string& head, const std::string& name)
    {
        const auto at = head.find("\r\n" + name + ": ");
        if (at == std::string::npos)
        {
            return {};
        }
        const auto begin = at + 4 + name.size();
        return head.substr(begin, head.find("\r\n", begin) - begin);
    }

    void fill_more()
    {
        char buffer[16384];
        const auto n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
        {
            throw std::runtime_error{"connection closed mid-response"};
        }
        buffered.append(buffer, static_cast<std::size_t>(n));
    }

    int fd{-1};
    std::string buffered;
};

}  // namespace e2e
