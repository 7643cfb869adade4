#include "common/read_file.hpp"

#include "common/types.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mnt
{

std::string read_file(const std::filesystem::path& path)
{
    const auto fail = [&path](const char* what)
    {
        const int error = errno;
        throw mnt_error{std::string{"cannot "} + what + " '" + path.string() + "': " + std::strerror(error)};
    };

    int fd = -1;
    do
    {
        fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
    {
        fail("open");
    }
    struct fd_closer
    {
        int fd;
        ~fd_closer()
        {
            ::close(fd);
        }
    };
    const fd_closer closer{fd};

    // read()s into [data, data + capacity) until it is full or at EOF;
    // returns the bytes read
    const auto read_into = [&](char* data, const std::size_t capacity)
    {
        std::size_t filled = 0;
        while (filled < capacity)
        {
            const auto n = ::read(fd, data + filled, capacity - filled);
            if (n > 0)
            {
                filled += static_cast<std::size_t>(n);
            }
            else if (n == 0)
            {
                break;
            }
            else if (errno != EINTR)
            {
                fail("read");
            }
        }
        return filled;
    };

    struct stat info{};
    if (::fstat(fd, &info) != 0)
    {
        fail("stat");
    }
    std::string bytes(info.st_size > 0 ? static_cast<std::size_t>(info.st_size) : 0U, '\0');
    bytes.resize(read_into(bytes.data(), bytes.size()));

    // the file may have grown since the fstat: read on until read() says EOF
    char chunk[4096];
    for (;;)
    {
        const auto n = read_into(chunk, sizeof chunk);
        bytes.append(chunk, n);
        if (n < sizeof chunk)
        {
            break;
        }
    }
    return bytes;
}

}  // namespace mnt
